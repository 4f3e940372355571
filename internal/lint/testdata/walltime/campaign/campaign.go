// Package campaign is a walltime fixture: the campaign executor decides
// which results a report holds, so it reads no wall clock itself; its cell
// watchdog and retry backoff go through internal/supervise.
package campaign

import "time"

func watchdog() *time.Timer {
	return time.NewTimer(time.Second) // want `time\.NewTimer reads the wall clock in a simulation package`
}

func backoff() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock in a simulation package`
}
