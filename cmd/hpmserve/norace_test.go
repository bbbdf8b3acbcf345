//go:build !race

package main

const raceEnabled = false
