//go:build race

package sstable

func init() { raceEnabled = true }
