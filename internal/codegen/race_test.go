//go:build race

package codegen_test

func init() { raceEnabled = true }
