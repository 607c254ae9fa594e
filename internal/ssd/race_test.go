//go:build race

package ssd

func init() { raceEnabled = true }
