// Profiling flags shared by the CLIs, so each main registers them with one
// call instead of re-rolling the pprof file dance.
package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileFlags registers -cpuprofile and -memprofile on fs and returns the
// start function to call once fs is parsed. start begins the CPU profile
// and returns stop, which the caller defers with the address of its named
// error result: it writes the heap profile, then ends the CPU profile, and
// stores the first failure there unless the run already failed. A flag
// left empty turns its profile off.
func ProfileFlags(fs *flag.FlagSet) (start func() (stop func(runErr *error), err error)) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file at exit")
	return func() (func(*error), error) {
		stopCPU, err := startCPUProfile(*cpu)
		if err != nil {
			return nil, err
		}
		return func(runErr *error) {
			heapErr := writeHeapProfile(*mem)
			if err := stopCPU(); heapErr == nil {
				heapErr = err
			}
			if *runErr == nil {
				*runErr = heapErr
			}
		}, nil
	}
}

// startCPUProfile begins a CPU profile written to path and returns a
// stop function that ends the profile and closes the file. An empty
// path is a no-op (the returned stop is still safe to call).
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile garbage-collects (so the profile reflects live
// objects, not garbage awaiting collection) and writes the heap profile
// to path. An empty path is a no-op.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	return f.Close()
}
