package main

import (
	"fmt"
	"os"

	"lvm/internal/crashtest"
)

// runCrashtest executes the seeded fault-plan matrix and fails the
// process when any plan fails to recover (or is nondeterministic).
func runCrashtest(seeds int, short bool) error {
	ok, err := crashtest.Run(crashtest.Options{Seeds: seeds, Short: short}, os.Stdout)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("crash-recovery matrix failed (see report above)")
	}
	return nil
}
