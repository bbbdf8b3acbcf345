package main

import (
	"syscall"
	"time"
)

// childAttr makes the kernel SIGKILL the daemon if hpmperf dies without
// reaping it (a crash, or a SIGKILL from a harness timeout).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// sleepUntil blocks the calling thread in nanosleep(2) until due. The Go
// runtime's own timers wake an idle process through epoll with
// millisecond granularity, which would make the open-loop generator run
// ~0.5 ms late on average; the kernel sleep is good to tens of µs.
func sleepUntil(due time.Time) {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
