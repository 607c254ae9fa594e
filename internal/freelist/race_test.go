//go:build race

package freelist

func init() { raceEnabled = true }
