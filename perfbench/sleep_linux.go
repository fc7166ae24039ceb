package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The open-loop generator needs sub-millisecond
// wake-ups: time.Sleep can oversleep by a millisecond on virtualised
// hosts, while nanosleep(2) wakes within the kernel's timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) != nil {
			time.Sleep(d)
		}
	}
}
