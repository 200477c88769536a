//go:build race

package sigtable

func init() { raceEnabled = true }
