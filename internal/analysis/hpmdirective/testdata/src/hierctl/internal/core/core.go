package core

// Well-formed directives parse silently.
func sanctioned() int {
	x := 1 //hpm:wallclock observe-only overhead metric
	return x
}

// A typo'd kind is a diagnostic, not a silently dead annotation.
func typod() int {
	x := 2 //hpm:walclock observe-only // want `unknown //hpm: directive walclock`
	return x
}

// Escape kinds require a justification.
func unjustified() int {
	x := 3 //hpm:wallclock // want `//hpm:wallclock needs a justification`
	return x
}

var _, _, _ = sanctioned, typod, unjustified

// A pin in a production file is never run by go test.
//
//hpm:pin mechanics // want `//hpm:pin on TestInProductionFile outside a _test.go file`
func TestInProductionFile() {}
