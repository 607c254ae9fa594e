//go:build race

package lsm

func init() { raceEnabled = true }
