package fleet

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"hierctl/internal/core"
	"hierctl/internal/obs"
	"hierctl/internal/race"
)

// TestObserveIsOneEntryBatch pins that a bin reaches its shard as one job
// whichever call carried it. (1) Streams that alternate Observe and
// one-bin ObserveBatch entries over the same tenants end with the same
// decisions, flight-recorder records, run records and Stats as the
// all-batch stream. (2) The one difference is the enqueue: with the shard
// wedged and its one queue slot taken, ObserveBatch rejects while a
// concurrent Observe waits, then applies. (3) A warm Observe allocates
// what Session.Decision allocates plus the one boxed decision — no
// channel, no closure — measured against a silent one-entry batch, which
// pays for the same stepping and builds no decision.
func TestObserveIsOneEntryBatch(t *testing.T) {
	tc := batchTenantConfig("", 3)
	tc.TelemetryRecords = 512
	ids := []string{"a", "b", "c"}
	count := func(bin, tenant int) float64 { return float64(120 + 90*((bin+2*tenant)%5)) }

	t.Run("equivalence", func(t *testing.T) {
		batch, mixed := New(Config{Shards: 2}), New(Config{Shards: 2})
		defer batch.Close()
		defer mixed.Close()
		for _, f := range []*Fleet{batch, mixed} {
			for _, id := range ids {
				if err := f.CreateTenant(id, tc); err != nil {
					t.Fatal(err)
				}
			}
		}
		viaBatch := func(f *Fleet, id string, c float64) core.BinDecision {
			res, err := f.ObserveBatch([]BatchEntry{{Tenant: id, Counts: []float64{c}}})
			if err != nil || res[0].Err != nil {
				t.Fatalf("batch %s: %v %v", id, err, res[0].Err)
			}
			return *res[0].LastDecision
		}
		for bin := 0; bin < 12; bin++ {
			for i, id := range ids {
				want := viaBatch(batch, id, count(bin, i))
				var got core.BinDecision
				if (bin+i)%2 == 0 {
					var err error
					if got, err = mixed.Observe(id, count(bin, i)); err != nil {
						t.Fatal(err)
					}
				} else {
					got = viaBatch(mixed, id, count(bin, i))
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("bin %d tenant %s: decisions diverged:\nbatch %+v\nmixed %+v", bin, id, want, got)
				}
			}
		}
		sb, sm := batch.Stats(), mixed.Stats()
		if sb.DecideSeconds <= 0 || sm.DecideSeconds <= 0 {
			t.Fatalf("decide seconds %v and %v, want both stepping times counted", sb.DecideSeconds, sm.DecideSeconds)
		}
		sb.DecideSeconds, sm.DecideSeconds = 0, 0
		if !reflect.DeepEqual(sb, sm) {
			t.Fatalf("stats diverged:\nbatch %+v\nmixed %+v", sb, sm)
		}
		for _, id := range ids {
			telemetry := func(f *Fleet) []obs.Record {
				recs, _, err := f.Telemetry(id, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i := range recs {
					recs[i].DecideNs = 0 // wall clock
				}
				return recs
			}
			if want, got := telemetry(batch), telemetry(mixed); len(want) == 0 || !reflect.DeepEqual(want, got) {
				t.Fatalf("tenant %s: %d and %d flight-recorder records, or they diverged", id, len(want), len(got))
			}
			want, err := batch.CloseTenant(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mixed.CloseTenant(id)
			if err != nil {
				t.Fatal(err)
			}
			recordsIdentical(t, want, got)
		}
	})

	t.Run("blocking enqueue", func(t *testing.T) {
		f := New(Config{Shards: 1, QueueDepth: 1})
		defer f.Close()
		if err := f.CreateTenant("a", tc); err != nil {
			t.Fatal(err)
		}
		release, wedged := make(chan struct{}), make(chan struct{})
		f.shards[0].jobs <- funcJob(func() { close(wedged); <-release })
		<-wedged
		f.shards[0].jobs <- funcJob(func() {}) // the queue's one slot

		type reply struct {
			dec core.BinDecision
			err error
		}
		observed := make(chan reply, 1)
		go func() {
			dec, err := f.Observe("a", 200)
			observed <- reply{dec, err}
		}()
		res, err := f.ObserveBatch([]BatchEntry{{Tenant: "a", Counts: []float64{250}}})
		if err != nil || !errors.Is(res[0].Err, ErrQueueFull) {
			t.Fatalf("batch through a full queue: %v %v, want ErrQueueFull", err, res[0].Err)
		}
		select {
		case r := <-observed:
			t.Fatalf("Observe returned (%v) while its shard's queue was full", r.err)
		default:
		}
		close(release)
		if r := <-observed; r.err != nil || r.dec.Bin != 0 {
			t.Fatalf("Observe after the queue drained: bin %d, err %v", r.dec.Bin, r.err)
		}
		st, err := f.State("a")
		if err != nil {
			t.Fatal(err)
		}
		if stats := f.Stats(); st.Bins != 1 || stats.Observations != 1 || stats.QueueRejects != 1 {
			t.Fatalf("%d bins, %d observations, %d rejects; want the waiting bin applied and the batch's rejected", st.Bins, stats.Observations, stats.QueueRejects)
		}
	})

	t.Run("allocs", func(t *testing.T) {
		if race.Enabled {
			t.Skip("sync.Pool drops Puts at random under the race detector")
		}
		f := New(Config{Shards: 1})
		defer f.Close()
		if err := f.CreateTenant("a", tc); err != nil {
			t.Fatal(err)
		}
		// Four bins a run: one L1 decision per run at this cadence,
		// whatever bin the run starts on.
		const per = 4
		bin := 0
		entries := []BatchEntry{{Tenant: "a", Counts: make([]float64, 1)}}
		var dst []BatchResult
		observe := func() {
			for i := 0; i < per; i++ {
				if _, err := f.Observe("a", count(bin, 0)/10); err != nil {
					t.Fatal(err)
				}
				bin++
			}
		}
		silent := func() {
			for i := 0; i < per; i++ {
				entries[0].Counts[0] = count(bin, 0) / 10
				var err error
				if dst, err = f.ObserveBatchInto(dst[:0], entries, false); err != nil || dst[0].Err != nil {
					t.Fatal(err, dst[0].Err)
				}
				bin++
			}
		}
		// Warm the pooled call and dst; the whole subtest stays inside the
		// observation log's first 512-bin chunk.
		for i := 0; i < 10; i++ {
			observe()
			silent()
		}
		sess := f.tenants["a"].sess // the shard is idle between calls
		perDecision := testing.AllocsPerRun(40, func() { _ = sess.Decision() })
		perSilent := testing.AllocsPerRun(40, silent)
		perObserve := testing.AllocsPerRun(40, observe)
		t.Logf("allocs per %d bins: Observe %v, silent one-entry batch %v; Session.Decision %v", per, perObserve, perSilent, perDecision)
		if want := per * (perDecision + 1); perObserve-perSilent != want {
			t.Errorf("%d Observe calls cost %v allocs over the stepping's %v, want %v (Session.Decision's %v plus one boxed decision, each)",
				per, perObserve-perSilent, perSilent, want, perDecision)
		}
	})
}

// TestBinCountBounded pins the one place a bin's count is checked,
// tenant.step, from each of its three ways in. A count that is not finite
// and within [0, 1e6] is an error naming the tenant and the bin — never a
// request batch sized from it (1e13 used to be an out-of-memory throw, which
// no recover sees) — and, like any step error, it leaves the tenant as it
// was: not quarantined, nothing logged, the next good bin applies.
func TestBinCountBounded(t *testing.T) {
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("t", batchTenantConfig("", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("t", 200); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), -1, math.Inf(1), 1e6 + 1, 1e13} {
		_, err := f.Observe("t", bad)
		if err == nil || !strings.Contains(err.Error(), "tenant t bin 1: count") {
			t.Fatalf("Observe(%v): %v, want an error naming tenant t, bin 1 and the count", bad, err)
		}
	}
	res, err := f.ObserveBatch([]BatchEntry{{Tenant: "t", Counts: []float64{150, 1e13, 150}}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Applied != 1 || res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "tenant t bin 2: count 1e+13") {
		t.Fatalf("batch entry: applied %d, err %v; want 1 bin applied and bin 2 refused", res[0].Applied, res[0].Err)
	}
	if _, err := f.Observe("t", 1e6); err != nil {
		t.Fatalf("the bound itself refused: %v", err)
	}
	if st, err := f.State("t"); err != nil || st.Bins != 3 || st.Quarantined {
		t.Fatalf("state %+v (err %v), want 3 bins applied and no quarantine", st, err)
	}

	// The same count arriving in a journal frame: recovery fails loudly and
	// registers nothing.
	r := New(Config{Shards: 1})
	defer r.Close()
	err = r.Restore(bytes.NewReader(hugeCountLog(t, fuzzSeedLogs(t)[0])))
	if err == nil || !strings.Contains(err.Error(), "tenant a bin 4: count 1e+13") || len(r.Tenants()) != 0 {
		t.Fatalf("restore of a 1e13 delta: err %v with %d tenants registered, want bin 4 of tenant a refused and none", err, len(r.Tenants()))
	}
}
