//go:build !linux

package main

import (
	"syscall"
	"time"
)

// childAttr has no parent-death signal to offer off Linux; the reaper in
// daemon.go still covers interrupts and failing runs.
func childAttr() *syscall.SysProcAttr { return nil }

// sleepUntil falls back to the runtime timer off Linux.
func sleepUntil(due time.Time) { time.Sleep(time.Until(due)) }
