//go:build race

package devlsm

func init() { raceEnabled = true }
