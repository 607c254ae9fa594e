//go:build race

package memtable

func init() { raceEnabled = true }
