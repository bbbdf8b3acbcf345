package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hierctl/internal/ckpt"
	"hierctl/internal/obs"
)

// ckptWord is one labelled piece of a checkpoint field: n floats (kind
// 'f', 8 bytes each), bools ('b', one byte) or varints ('v', to the first
// byte below 0x80) in a row.
type ckptWord struct {
	name string
	kind byte
	n    int
}

// The layouts of the estimators' and controllers' checkpoints.
var (
	kalmanWords = []ckptWord{{"level", 'f', 1}, {"trend", 'f', 1}, {"P", 'f', 4}, {"steps", 'v', 1}}
	ewmaWords   = []ckptWord{{"value", 'f', 1}, {"started", 'b', 1}}
	countWords  = []ckptWord{{"explored", 'v', 1}, {"decisions", 'v', 1}}
)

// ckptField is a labelled byte range of a session checkpoint.
type ckptField struct {
	name   string
	lo, hi int
}

// ckptWalk writes a run's checkpoint in run.checkpoint's order, labelling
// every field it writes.
type ckptWalk struct {
	t      *testing.T
	w      ckpt.Writer
	fields []ckptField
}

// put labels what write appends: as one field named name when words is
// nil, else as one field per word, which must cover it exactly.
func (k *ckptWalk) put(name string, words []ckptWord, write func(*ckpt.Writer)) {
	k.t.Helper()
	lo := len(k.w.Bytes())
	write(&k.w)
	b, hi := k.w.Bytes(), len(k.w.Bytes())
	if words == nil {
		k.fields = append(k.fields, ckptField{name, lo, hi})
		return
	}
	at := lo
	for _, wd := range words {
		start := at
		for range wd.n {
			switch wd.kind {
			case 'f':
				at += 8
			case 'b':
				at++
			case 'v':
				for at < hi && b[at] >= 0x80 {
					at++
				}
				at++
			}
		}
		k.fields = append(k.fields, ckptField{name + "." + wd.name, start, at})
	}
	if at != hi {
		k.t.Fatalf("%s wrote bytes [%d, %d); its layout covers [%d, %d)", name, lo, hi, lo, at)
	}
}

// walkCheckpoint labels the fields run.checkpoint writes, each controller's
// and estimator's split into its words, and checks that the walk writes the
// session's checkpoint byte for byte.
func walkCheckpoint(t *testing.T, s *Session) []ckptField {
	t.Helper()
	k := &ckptWalk{t: t}
	k.w.Uint(checkpointVersion)
	if err := s.h.Checkpoint(&k.w); err != nil {
		t.Fatal(err)
	}
	r := s.r
	k.put("respWindow", nil, func(w *ckpt.Writer) { w.Floats(r.respWindow) })
	if r.l2 != nil {
		k.put("gammaModules", nil, func(w *ckpt.Writer) { w.Floats(r.gammaModules) })
		k.put("lambdaGRate", nil, func(w *ckpt.Writer) { w.Float(r.lambdaGRate) })
		k.put("arrivedTL2", nil, func(w *ckpt.Writer) { w.Int(int64(r.arrivedTL2)) })
	}
	k.put("freqIdx", nil, func(w *ckpt.Writer) {
		for _, idx := range r.freqIdx {
			for _, f := range idx {
				w.Int(int64(f))
			}
		}
	})
	// A module's field is one field of the code, live if it shows in any
	// module.
	const m = "module."
	for _, asm := range r.modules {
		k.put(m+"kalman0", kalmanWords, asm.kalman0.Checkpoint)
		k.put(m+"kalman1", kalmanWords, asm.kalman1.Checkpoint)
		k.put(m+"band", ewmaWords, asm.band.Checkpoint)
		k.put(m+"band0", ewmaWords, asm.band0.Checkpoint)
		k.put(m+"cEst", ewmaWords, asm.cEst.Checkpoint)
		k.put(m+"alpha", nil, func(w *ckpt.Writer) { w.Bools(asm.alpha) })
		k.put(m+"gamma", nil, func(w *ckpt.Writer) { w.Floats(asm.gamma) })
		k.put(m+"arrivedTL1", nil, func(w *ckpt.Writer) { w.Int(int64(asm.arrivedTL1)) })
		k.put(m+"predictedTL1", nil, func(w *ckpt.Writer) { w.Float(asm.predictedTL1) })
		if r.l2 != nil {
			k.put(m+"l0Ratio", nil, func(w *ckpt.Writer) { w.Float(asm.l0Ratio) })
		}
		k.put(m+"l1", countWords, asm.l1.Checkpoint)
		for _, l0 := range asm.l0s {
			k.put(m+"l0", countWords, l0.Checkpoint)
		}
	}
	if r.l2 != nil {
		k.put("kalmanG", kalmanWords, r.kalmanG.Checkpoint)
		k.put("bandG", ewmaWords, r.bandG.Checkpoint)
		k.put("l2", countWords, r.l2.Checkpoint)
	}
	k.put("recorder.total", nil, r.recorder.Checkpoint)
	var want ckpt.Writer
	if err := s.Checkpoint(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k.w.Bytes(), want.Bytes()) {
		t.Fatalf("the labelled walk writes %d bytes that are not the checkpoint's %d: walkCheckpoint has fallen behind run.checkpoint", len(k.w.Bytes()), len(want.Bytes()))
	}
	return k.fields
}

// newLivenessRun is newCheckpointRunWith over modules modules with
// T_L2 = 2·T_L1.
func newLivenessRun(t testing.TB, store *ArtifactStore, modules int) checkpointRun {
	t.Helper()
	cfg := fastConfig()
	cfg.L2.PeriodSeconds = 2 * cfg.L1.PeriodSeconds
	return newCheckpointRunWith(t, store, cfg, 30, modules)
}

// livenessOutcome is everything a restored session shows: the decision in
// force at the restore, the decisions of the bins stepped after it, the
// flight records written since (latencies zeroed), the recorder's Total and
// the close record (times zeroed).
type livenessOutcome struct {
	refused  bool
	restored BinDecision
	decs     []BinDecision
	failed   string
	recs     []obs.Record
	total    uint64
	rec      *Record
}

// playLiveness restores blob into a fresh run over modules modules and
// steps it through bins [from, to) of checkpointLoad. A panic is an outcome
// like any other.
func playLiveness(t *testing.T, store *ArtifactStore, modules int, blob []byte, from, to int) (out livenessOutcome) {
	t.Helper()
	run := newLivenessRun(t, store, modules)
	if err := run.sess.RestoreCheckpoint(blob); err != nil {
		return livenessOutcome{refused: true}
	}
	rec := run.mgr.Recorder()
	start := rec.Total()
	defer func() {
		if v := recover(); v != nil {
			out.failed = fmt.Sprint("panic: ", v)
		}
	}()
	out.restored = run.sess.Decision()
	for b := from; b < to; b++ {
		dec, err := run.sess.ObserveBin(checkpointLoad(b))
		if err != nil {
			out.failed = err.Error()
			return out
		}
		out.decs = append(out.decs, dec)
	}
	final, err := run.sess.Finish()
	if err != nil {
		out.failed = err.Error()
		return out
	}
	final.L0Time, final.L1Time, final.L2Time, final.LearnTime = 0, 0, 0, 0
	out.rec, out.total = final, rec.Total()
	out.recs = rec.Window(nil, 0)
	if uint64(len(out.recs)) != out.total-start {
		t.Fatalf("the ring kept %d of the %d records written since the restore: size it to the bins played", len(out.recs), out.total-start)
	}
	for i := range out.recs {
		out.recs[i].DecideNs = 0
	}
	return out
}

// livenessCut is a checkpoint of the liveness run over modules modules,
// taken once bin bins have stepped.
type livenessCut struct{ modules, bin int }

// TestCheckpointFieldsLive is the checkpoint's liveness property: every
// field that run.checkpoint and the controllers' Checkpoint write is read.
// For each byte of each field, a restore of the checkpoint with bit 6, 1 or
// 0 flipped — never a varint's continuation bit; bit 0 is a zig-zag
// varint's sign — is played livenessBins bins and finished; the field is
// live once some flip changes what the session shows (livenessOutcome)
// against the unperturbed twin. A flip the reader refuses shows nothing.
// Each shape must show every field its checkpoint writes: the two-module
// run, whose L2 decides, and the one-module run, which writes no cluster
// state. The run has T_L2 = 2·T_L1: with T_L2 = T_L1 the cluster rate is
// rewritten before any L1 boundary reads it. Each shape is cut twice, off
// the L1 boundary (the L0 correction is rewritten first at one): early,
// while the filters' step counts and the bands' started flags still
// matter, and late, once the bands have started and their values are read.
// Under -short only the late cuts play, and a field they cannot show is
// logged.
//
//hpm:pin checkpoint
func TestCheckpointFieldsLive(t *testing.T) {
	const livenessBins = 12
	cuts := []livenessCut{{2, 18}, {1, 18}, {2, 1}, {1, 1}}
	if testing.Short() {
		cuts = cuts[:2]
	}
	store := NewArtifactStore()
	blobs := map[livenessCut][]byte{}
	for _, modules := range []int{2, 1} {
		ref := newLivenessRun(t, store, modules)
		for b := 0; b <= 18; b++ {
			if c := (livenessCut{modules, b}); slices.Contains(cuts, c) {
				var w ckpt.Writer
				if err := ref.sess.Checkpoint(&w); err != nil {
					t.Fatal(err)
				}
				blobs[c] = w.Bytes()
			}
			if _, err := ref.sess.ObserveBin(checkpointLoad(b)); err != nil {
				t.Fatal(err)
			}
		}
		if modules == 2 && ref.sess.r.bandG.Delta() == 0 {
			t.Fatal("the cluster band has not started by the late cut: cut later")
		}
	}

	// Fields are named per shape: each must show in the run that writes it.
	live := map[string]bool{}
	var names []string
	for _, cut := range cuts {
		blob := blobs[cut]
		restored := newLivenessRun(t, store, cut.modules)
		if err := restored.sess.RestoreCheckpoint(blob); err != nil {
			t.Fatal(err)
		}
		fields := walkCheckpoint(t, restored.sess)
		twin := playLiveness(t, store, cut.modules, blob, cut.bin, cut.bin+livenessBins)
		if twin.refused || twin.failed != "" || !reflect.DeepEqual(twin, playLiveness(t, store, cut.modules, blob, cut.bin, cut.bin+livenessBins)) {
			t.Fatalf("cut %+v: the unperturbed restore fails (%q) or does not replay itself", cut, twin.failed)
		}
		for _, f := range fields {
			name := fmt.Sprintf("%d-module %s", cut.modules, f.name)
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
			// Most significant bytes first: a float's exponent, a varint's
			// high digits.
			for at := f.hi - 1; at >= f.lo && !live[name]; at-- {
				for _, bit := range []byte{1 << 6, 1 << 1, 1} {
					flipped := slices.Clone(blob)
					flipped[at] ^= bit
					if out := playLiveness(t, store, cut.modules, flipped, cut.bin, cut.bin+livenessBins); !out.refused && !reflect.DeepEqual(out, twin) {
						live[name] = true
						break
					}
				}
			}
		}
	}
	for _, name := range names {
		switch {
		case !live[name] && testing.Short():
			t.Logf("checkpoint field %s: not shown by the late cuts alone", name)
		case !live[name]:
			t.Errorf("checkpoint field %s: no flip of any of its bytes changes what the session shows: remove it", name)
		}
	}
}
