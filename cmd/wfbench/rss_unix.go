//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSSMB is the process's peak resident set size, or 0 if the system
// does not report it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		kb /= 1024 // these report bytes, the others kilobytes
	}
	return kb / 1024
}
