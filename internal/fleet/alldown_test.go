package fleet

import (
	"bytes"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/workload"
)

// TestAllModulesDownRecovers pins the whole-cluster outage: a two-module
// tenant whose failure plan takes all eight computers down at t = 90 s and
// repairs them at 600 s keeps stepping — the L2 holds its split while no
// module is available, as a single-module tenant's L1 goes all-off — so the
// repairs fire and computers come back. The outage used to abort the bin
// that met it mid-bin and wedge the tenant for good: every later bin failed
// with "pushed mid-bin", the repairs never ran, and State().Bins (the
// harness's ingest count) ran one ahead of the observation log that every
// snapshot and restore holds. A snapshot-restored twin is compared after
// every bin.
func TestAllModulesDownRecovers(t *testing.T) {
	spec, err := cluster.StandardCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	tc := TenantConfig{
		Spec:       spec,
		Core:       fastCore(),
		Store:      testStoreConfig(),
		StoreSeed:  9,
		BinSeconds: 30,
	}
	for i, m := range spec.Modules {
		for j := range m.Computers {
			tc.Failures = append(tc.Failures,
				workload.FailureEvent{At: 90, Module: i, Comp: j},
				workload.FailureEvent{At: 600, Module: i, Comp: j, Repair: true})
		}
	}
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", tc); err != nil {
		t.Fatal(err)
	}
	sawOutage := false
	for bin := 0; bin < 40; bin++ {
		dec, err := f.Observe("a", 200)
		if err != nil {
			t.Fatalf("bin %d: %v", bin, err)
		}
		sawOutage = sawOutage || dec.Operational == 0
		st, err := f.State("a")
		if err != nil {
			t.Fatal(err)
		}
		if st.Bins != bin+1 {
			t.Fatalf("after bin %d the tenant reports %d bins", bin, st.Bins)
		}
		var buf bytes.Buffer
		if err := f.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		twin := New(Config{Shards: 1})
		if err := twin.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			twin.Close()
			t.Fatalf("bin %d: restore: %v", bin, err)
		}
		ts, err := twin.State("a")
		twin.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ts.Bins != st.Bins {
			t.Fatalf("after bin %d the tenant reports %d bins, its restored twin %d", bin, st.Bins, ts.Bins)
		}
	}
	if !sawOutage {
		t.Fatal("no bin ended with every computer down; the outage went unexercised")
	}
	st, err := f.State("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.LastDecision.Operational == 0 {
		t.Fatal("no computer operational 600 s after the repair")
	}
}
