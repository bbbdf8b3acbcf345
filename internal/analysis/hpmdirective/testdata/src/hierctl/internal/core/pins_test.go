package core

import "testing"

// Well-placed pins parse silently; a test may carry one line per group.
//
//hpm:pin mechanics
//hpm:pin pools
func TestPinned(t *testing.T) {}

// The fuzz group pins fuzz targets.
//
//hpm:pin fuzz
func FuzzPinned(f *testing.F) {}

// An unknown group is a diagnostic, not a test silently left out.
//
//hpm:pin mechanic // want `unknown pin group "mechanic"`
func TestUnknownGroup(t *testing.T) {}

// A pin needs its group.
//
//hpm:pin // want `unknown pin group ""`
func TestNoGroup(t *testing.T) {}

// A typo'd kind is a diagnostic too.
//
//hpm:pinn mechanics // want `unknown //hpm: directive pinn`
func TestTypoKind(t *testing.T) {}

// A helper is not a test: go test never runs it by name.
//
//hpm:pin search // want `//hpm:pin search on checkAllocs: the group runs only a top-level func TestX\(t \*testing.T\)`
func checkAllocs(t *testing.T) {}

// Nor is a TestX of the wrong signature.
//
//hpm:pin search // want `//hpm:pin search on TestWrongSignature: the group runs only a top-level func TestX\(t \*testing.T\)`
func TestWrongSignature(b *testing.B) {}

// A lower-case letter after the prefix makes it not a test.
//
//hpm:pin search // want `on Testlower: the group runs only`
func Testlower(t *testing.T) {}

// The fuzz group runs only fuzz targets.
//
//hpm:pin fuzz // want `//hpm:pin fuzz on TestNotFuzz: the group runs only a top-level func FuzzX\(f \*testing.F\)`
func TestNotFuzz(t *testing.T) {}

// One line per group.
//
//hpm:pin scrape
//hpm:pin scrape // want `duplicate //hpm:pin scrape on TestTwice`
func TestTwice(t *testing.T) {}

type suite struct{}

// A method is not a test either.
//
//hpm:pin checkpoint // want `on TestMethod: the group runs only`
func (suite) TestMethod(t *testing.T) {}

// A pin outside a doc comment pins nothing.
func TestBodyPin(t *testing.T) {
	//hpm:pin sharing // want `//hpm:pin belongs in the doc comment of the test it pins`
}
