//go:build race

package vlog

func init() { raceEnabled = true }
