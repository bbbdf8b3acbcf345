package core

import (
	"fmt"

	"hierctl/internal/ckpt"
	"hierctl/internal/forecast"
)

// checkpointVersion is the first word of every session checkpoint. A
// reader also takes versions 1 and 2 (see restore) and refuses any other.
const checkpointVersion = 3

// Checkpoint appends to w the state of a streaming session after its last
// clean bin — the harness (plant, feed, store, random streams, counters),
// every estimator, each module's decision in force, the module split in
// force, each controller's overhead counts, and the flight recorder's
// Total — as one versioned blob.
// Nothing derivable from the manager's configuration or its learned
// artifacts is written. A session opened on a trace, finished, or stopped
// mid-bin by a failed step has no checkpoint.
func (s *Session) Checkpoint(w *ckpt.Writer) error {
	switch {
	case s.finished:
		return fmt.Errorf("core: checkpoint of a finished session")
	case s.r.trace != nil:
		return fmt.Errorf("core: checkpoint of a trace-replay session")
	case s.Halted():
		return fmt.Errorf("core: checkpoint of a session stopped mid-bin %d", s.bins)
	}
	w.Uint(checkpointVersion)
	if err := s.h.Checkpoint(w); err != nil {
		return err
	}
	s.r.checkpoint(w)
	return nil
}

// RestoreCheckpoint puts a fresh streaming session — built by NewSession
// from the same manager configuration, store configuration and session
// configuration as the checkpointed one — into the checkpointed state:
// its next bins decide, and its Finish reports, exactly as the
// checkpointed session's would. The flight recorder's ring starts empty,
// numbered on from the checkpointed Total. On error the session is
// unusable.
func (s *Session) RestoreCheckpoint(b []byte) error {
	if s.finished || s.r.trace != nil || s.h.Bins() != 0 {
		return fmt.Errorf("core: restore into a used or trace-replay session")
	}
	rd := ckpt.NewReader(b)
	v := rd.Uint()
	if rd.Err() == nil && (v < 1 || v > checkpointVersion) {
		return fmt.Errorf("core: checkpoint version %d, want 1 to %d", v, checkpointVersion)
	}
	if err := s.h.RestoreCheckpoint(rd, v == 1); err != nil {
		return err
	}
	s.r.restore(rd, v)
	if err := rd.Done(); err != nil {
		return err
	}
	s.bins = s.h.Bins()
	for i, st := range s.h.LastObserved() {
		s.r.modules[i].lastAgg, s.r.modules[i].lastPer = st.Agg, st.Per
	}
	if bins := s.h.Bins(); bins > 0 {
		s.r.refreshDecision(bins - 1)
	}
	return nil
}

// checkpoint appends the hierarchy's side of a session checkpoint. The
// cluster words — the split, the cluster rate and arrival counter, each
// module's L0 correction, the cluster filter and band, the L2's counts —
// are written only with an L2: a one-module run holds no cluster state.
func (r *run) checkpoint(w *ckpt.Writer) {
	w.Floats(r.respWindow)
	if r.l2 != nil {
		w.Floats(r.gammaModules)
		w.Float(r.lambdaGRate)
		w.Int(int64(r.arrivedTL2))
	}
	for _, idx := range r.freqIdx {
		for _, f := range idx {
			w.Int(int64(f))
		}
	}
	for _, asm := range r.modules {
		asm.kalman0.Checkpoint(w)
		asm.kalman1.Checkpoint(w)
		asm.band.Checkpoint(w)
		asm.band0.Checkpoint(w)
		asm.cEst.Checkpoint(w)
		w.Bools(asm.alpha)
		w.Floats(asm.gamma)
		w.Int(int64(asm.arrivedTL1))
		w.Float(asm.predictedTL1)
		if r.l2 != nil {
			w.Float(asm.l0Ratio)
		}
		asm.l1.Checkpoint(w)
		for _, l0 := range asm.l0s {
			l0.Checkpoint(w)
		}
	}
	if r.l2 != nil {
		r.kalmanG.Checkpoint(w)
		r.bandG.Checkpoint(w)
		r.l2.Checkpoint(w)
	}
	r.recorder.Checkpoint(w)
}

// restore reads back what checkpoint wrote, of version v. Versions 1 and 2
// also wrote a flag saying whether the split follows (not before the first
// L2 decision, when the split build seeded stands), each module's
// forecast-made flag (set at every boundary past the first), the L2's own
// copy of the split, and the cluster words on a one-module run too, where
// nothing reads them; those are read and dropped. Version 1 also wrote per
// module the pending reallocation ratio (1 at every checkpoint) and its
// L1's copy of the module decision, and the harness's second copy of each
// module observation.
func (r *run) restore(rd *ckpt.Reader, v uint64) {
	old := v < checkpointVersion
	cluster := r.l2 != nil || old
	rd.Floats(r.respWindow)
	follows := r.l2 != nil
	if old {
		follows = rd.Bool()
	}
	if follows {
		rd.Floats(r.gammaModules)
	}
	if cluster {
		r.lambdaGRate = rd.Float()
		r.arrivedTL2 = rd.IntIn(0, maxCount, "arrivals")
	}
	for i, idx := range r.freqIdx {
		for j := range idx {
			idx[j] = rd.IntIn(-1, len(r.modules[i].specs[j].FrequenciesHz)-1, "frequency index")
		}
	}
	for _, asm := range r.modules {
		asm.kalman0.RestoreCheckpoint(rd)
		asm.kalman1.RestoreCheckpoint(rd)
		asm.band.RestoreCheckpoint(rd)
		asm.band0.RestoreCheckpoint(rd)
		asm.cEst.RestoreCheckpoint(rd)
		rd.Bools(asm.alpha)
		rd.Floats(asm.gamma)
		asm.arrivedTL1 = rd.IntIn(0, maxCount, "arrivals")
		asm.predictedTL1 = rd.Float()
		if old {
			rd.Bool()
		}
		if v == 1 {
			rd.Float()
		}
		if cluster {
			asm.l0Ratio = rd.Float()
		}
		if v == 1 { // into the observation scratch, which the next plan rewrites
			rd.Bools(asm.obsAvail)
			rd.Floats(asm.obsQueues)
		}
		asm.l1.RestoreCheckpoint(rd)
		for _, l0 := range asm.l0s {
			l0.RestoreCheckpoint(rd)
		}
	}
	switch {
	case r.l2 != nil:
		r.kalmanG.RestoreCheckpoint(rd)
		r.bandG.RestoreCheckpoint(rd)
		if old { // into the observation scratch, which the next decision rewrites
			rd.Floats(r.l2QAvg)
		}
		r.l2.RestoreCheckpoint(rd)
	case old: // a one-module run's cluster words, dropped for what build made
		new(forecast.Kalman).RestoreCheckpoint(rd)
		new(forecast.EWMA).RestoreCheckpoint(rd) // a band's words are its EWMA's
		r.gammaModules[0], r.lambdaGRate, r.arrivedTL2, r.modules[0].l0Ratio = 1, 0, 0, 1
	}
	r.recorder.RestoreCheckpoint(rd)
}

// maxCount bounds a restored arrival counter: far past any period's
// arrivals at the fleet's 10⁶-per-bin cap.
const maxCount = 1 << 52
