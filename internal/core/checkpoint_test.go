package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hierctl/internal/ckpt"
	"hierctl/internal/cluster"
	"hierctl/internal/des"
	"hierctl/internal/obs"
	"hierctl/internal/workload"
)

// checkpointRun is one streaming session of the checkpoint property: two
// modules (the L2 decides) unless asked for one, a failure plan that fails
// a computer of the last module and later repairs it, and a flight
// recorder.
type checkpointRun struct {
	sess *Session
	mgr  *Manager
}

func newCheckpointRun(t testing.TB, store *ArtifactStore) checkpointRun {
	t.Helper()
	return newCheckpointRunAt(t, store, 30)
}

// newCheckpointRunAt is newCheckpointRun with bins binSeconds wide.
func newCheckpointRunAt(t testing.TB, store *ArtifactStore, binSeconds float64) checkpointRun {
	t.Helper()
	return newCheckpointRunWith(t, store, fastConfig(), binSeconds, 2)
}

// newCheckpointRunWith is newCheckpointRunAt under configuration cfg, over
// modules modules (one or two).
func newCheckpointRunWith(t testing.TB, store *ArtifactStore, cfg Config, binSeconds float64, modules int) checkpointRun {
	t.Helper()
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 3), moduleOf("M2", 3)}[:modules]}
	mgr, err := store.NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := obs.NewRecorder(256)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetRecorder(rec)
	scfg := workload.DefaultStoreConfig()
	scfg.Objects = 500
	scfg.PopularCount = 50
	st, err := workload.NewStore(des.NewStream(3, "store"), scfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.NewSession(st, SessionConfig{BinSeconds: binSeconds, Failures: []workload.FailureEvent{
		{At: 240, Module: modules - 1, Comp: 0},
		{At: 600, Module: modules - 1, Comp: 0, Repair: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return checkpointRun{sess: sess, mgr: mgr}
}

// checkpointLoad is low for ten bins — the L1s power computers down —
// then high, so they power back on and boot across bin boundaries.
func checkpointLoad(bin int) float64 {
	if bin < 10 {
		return 150
	}
	return 3000
}

// plantHas reports whether some computer of the session's plant is in
// state st.
func plantHas(s *Session, st cluster.PowerState) bool {
	p := s.h.Plant()
	for i := 0; i < p.Modules(); i++ {
		for j := 0; j < p.ModuleSize(i); j++ {
			if p.Computer(i, j).State() == st {
				return true
			}
		}
	}
	return false
}

// TestSessionCheckpointRestoresState is the checkpoint property at the
// session layer: checkpoint a session after any bin, restore the blob into
// a fresh session, and the restored one takes every later decision, writes
// every later flight record and finishes with the record of the session
// that never stopped. The cuts include a computer failed by the plan and
// one mid-boot, and a restored session checkpoints to the very bytes it
// was restored from.
//
//hpm:pin checkpoint
func TestSessionCheckpointRestoresState(t *testing.T) {
	const bins = 24
	store := NewArtifactStore()
	ref := newCheckpointRun(t, store)
	var want []BinDecision
	var ckpts [][]byte
	sawFailed, sawBooting := false, false
	for b := 0; b < bins; b++ {
		var w ckpt.Writer
		if err := ref.sess.Checkpoint(&w); err != nil {
			t.Fatalf("checkpoint after %d bins: %v", b, err)
		}
		ckpts = append(ckpts, w.Bytes())
		sawFailed = sawFailed || plantHas(ref.sess, cluster.Failed)
		sawBooting = sawBooting || plantHas(ref.sess, cluster.Booting)
		dec, err := ref.sess.ObserveBin(checkpointLoad(b))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, dec)
	}
	if !sawFailed || !sawBooting {
		t.Fatalf("no cut with a failed computer (%v) or one booting (%v)", sawFailed, sawBooting)
	}
	wantTotal := ref.mgr.Recorder().Total()
	wantRecs := ref.mgr.Recorder().Window(nil, 0)
	wantRec, err := ref.sess.Finish()
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{0, 1, 5, 8, 11, 13, 17, bins - 1} {
		run := newCheckpointRun(t, store)
		if err := run.sess.RestoreCheckpoint(ckpts[cut]); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		var again ckpt.Writer
		if err := run.sess.Checkpoint(&again); err != nil || !bytes.Equal(again.Bytes(), ckpts[cut]) {
			t.Fatalf("cut %d: the restored session checkpoints to %d other bytes (err %v)", cut, len(again.Bytes()), err)
		}
		if cut > 0 && !reflect.DeepEqual(run.sess.Decision(), want[cut-1]) {
			t.Fatalf("cut %d: restored decision %+v, want %+v", cut, run.sess.Decision(), want[cut-1])
		}
		for b := cut; b < bins; b++ {
			dec, err := run.sess.ObserveBin(checkpointLoad(b))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec, want[b]) {
				t.Fatalf("cut %d bin %d: decision %+v, want %+v", cut, b, dec, want[b])
			}
		}
		rec := run.mgr.Recorder()
		if rec.Total() != wantTotal {
			t.Fatalf("cut %d: recorder total %d, want %d", cut, rec.Total(), wantTotal)
		}
		// The records written since the restore are the uninterrupted run's.
		got := rec.Window(nil, 0)
		tail := wantRecs[len(wantRecs)-len(got):]
		for i := range got {
			g, w := got[i], tail[i]
			g.DecideNs, w.DecideNs = 0, 0
			if g != w {
				t.Fatalf("cut %d: record %d is %+v, want %+v", cut, i, got[i], tail[i])
			}
		}
		gotRec, err := run.sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Record{gotRec, wantRec} {
			r.DecideTime, r.LearnTime = 0, 0
		}
		if !reflect.DeepEqual(gotRec, wantRec) {
			t.Fatalf("cut %d: close record\n%+v\nwant\n%+v", cut, gotRec, wantRec)
		}
	}
}

// TestSessionCheckpointRefusals: a checkpoint is taken between bins of a
// live streaming session and restored into a fresh one; a corrupt blob is
// an error, never a panic.
//
//hpm:pin checkpoint
func TestSessionCheckpointRefusals(t *testing.T) {
	store := NewArtifactStore()
	run := newCheckpointRun(t, store)
	for b := 0; b < 3; b++ {
		if _, err := run.sess.ObserveBin(400); err != nil {
			t.Fatal(err)
		}
	}
	var w ckpt.Writer
	if err := run.sess.Checkpoint(&w); err != nil {
		t.Fatal(err)
	}
	blob := w.Bytes()
	if err := run.sess.RestoreCheckpoint(blob); err == nil {
		t.Error("restore into a session that has stepped succeeded")
	}
	fresh := newCheckpointRun(t, store)
	if err := fresh.sess.RestoreCheckpoint(append([]byte{9}, blob[1:]...)); err == nil {
		t.Error("a checkpoint of another version restored")
	}
	for _, cut := range []int{1, len(blob) / 2, len(blob) - 1} {
		if err := newCheckpointRun(t, store).sess.RestoreCheckpoint(blob[:cut]); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("checkpoint cut to %d of %d bytes: %v, want ErrCorrupt", cut, len(blob), err)
		}
	}
	if err := newCheckpointRun(t, store).sess.RestoreCheckpoint(append(blob, 0)); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("checkpoint with a trailing byte: %v, want ErrCorrupt", err)
	}
	if _, err := run.sess.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := run.sess.Checkpoint(&w); err == nil {
		t.Error("a finished session checkpointed")
	}
}

// TestSessionHaltedMidBin: a step that panics inside its bin halts the
// session — at the bin's first tick, or after its last tick ran and the
// clock reached the bin boundary. A halted session has no checkpoint, steps
// no further, and reports the progress and decision of its last clean bin.
//
//hpm:pin checkpoint
func TestSessionHaltedMidBin(t *testing.T) {
	store := NewArtifactStore()
	for _, at := range []string{"first tick", "last tick"} {
		run := newCheckpointRunAt(t, store, 90)
		for b := 0; b < 3; b++ {
			if _, err := run.sess.ObserveBin(400); err != nil {
				t.Fatal(err)
			}
		}
		bins, steps, simTime := run.sess.Progress()
		dec := run.sess.Decision()
		tick := steps
		if at == "last tick" {
			tick += run.sess.r.sub - 1
		}
		run.sess.SetObserveFailpoint(func(k int) {
			if k == tick {
				panic("injected fault")
			}
		})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: the injected fault did not panic", at)
				}
			}()
			_ = run.sess.StepBin(400)
		}()
		if !run.sess.Halted() {
			t.Fatalf("%s: session not halted", at)
		}
		var w ckpt.Writer
		if err := run.sess.Checkpoint(&w); err == nil {
			t.Errorf("%s: a halted session checkpointed", at)
		}
		b2, s2, t2 := run.sess.Progress()
		if b2 != bins || s2 != steps || t2 != simTime {
			t.Errorf("%s: progress (%d, %d, %v), want the last clean bin's (%d, %d, %v)", at, b2, s2, t2, bins, steps, simTime)
		}
		if got := run.sess.Decision(); !reflect.DeepEqual(got, dec) {
			t.Errorf("%s: decision %+v, want the last clean one %+v", at, got, dec)
		}
		run.sess.SetObserveFailpoint(nil)
		if err := run.sess.StepBin(400); err == nil {
			t.Errorf("%s: a halted session stepped", at)
		}
	}
}

// FuzzCheckpointDecode is the checkpoint reader's safety pin: restoring
// any blob into a fresh session returns — an error for a corrupt one —
// and never panics, and allocates in proportion to the blob (a count in
// it cannot size an allocation past the bytes that follow). Seeds are
// real checkpoints of a session with a failure plan in progress and
// computers booting.
//
//hpm:pin fuzz
func FuzzCheckpointDecode(f *testing.F) {
	store := NewArtifactStore()
	seed := newCheckpointRun(f, store)
	for b := 0; b < 14; b++ {
		if b%4 == 0 || b == 11 {
			var w ckpt.Writer
			if err := seed.sess.Checkpoint(&w); err != nil {
				f.Fatal(err)
			}
			f.Add(w.Bytes())
		}
		if _, err := seed.sess.ObserveBin(checkpointLoad(b)); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		run := newCheckpointRun(t, store)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run.sess.RestoreCheckpoint(blob)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10+32*uint64(len(blob)) {
			t.Fatalf("restoring a %d-byte blob allocated %d bytes", len(blob), grown)
		}
		if err != nil && !errors.Is(err, ckpt.ErrCorrupt) && !strings.HasPrefix(err.Error(), "core: checkpoint version") {
			t.Fatalf("restore failed with %v, want a corrupt-checkpoint error", err)
		}
	})
}
