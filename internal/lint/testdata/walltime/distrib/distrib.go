// Package distrib is a walltime fixture: the coordinator merges results a
// trained rule table depends on, so it reads no wall clock itself; its batch
// watchdog, re-dispatch backoff, handshake timeout and shutdown grace go
// through internal/supervise.
package distrib

import "time"

func batchWatchdog() *time.Timer {
	return time.NewTimer(5 * time.Minute) // want `time\.NewTimer reads the wall clock in a simulation package`
}

func redispatchBackoff() {
	time.Sleep(100 * time.Millisecond) // want `time\.Sleep reads the wall clock in a simulation package`
}
