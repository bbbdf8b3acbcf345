package core

import (
	"fmt"

	"hierctl/internal/ckpt"
)

// checkpointVersion is the first word of every session checkpoint; a
// reader refuses any other.
const checkpointVersion = 1

// Checkpoint appends to w the state of a streaming session after its last
// clean bin — the harness (plant, feed, store, random streams, counters),
// every estimator, each controller's previous decision and overhead
// counts, and the flight recorder's Total — as one versioned blob.
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
	if v := rd.Uint(); rd.Err() == nil && v != checkpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want %d", v, checkpointVersion)
	}
	if err := s.h.RestoreCheckpoint(rd); err != nil {
		return err
	}
	s.r.restore(rd)
	if err := rd.Done(); err != nil {
		return err
	}
	s.bins = s.h.Bins()
	m := s.r.m
	for i, st := range s.h.LastObserved() {
		m.modules[i].lastAgg, m.modules[i].lastPer = st.Agg, st.Per
	}
	if bins := s.h.Bins(); bins > 0 {
		s.r.refreshDecision(bins - 1)
	}
	return nil
}

// checkpoint appends the hierarchy's side of a session checkpoint.
func (r *run) checkpoint(w *ckpt.Writer) {
	m := r.m
	w.Floats(r.respWindow)
	w.Bool(r.gammaModules != nil)
	w.Floats(r.gammaModules)
	w.Float(r.lambdaGRate)
	w.Int(int64(r.arrivedTL2))
	for _, idx := range r.freqIdx {
		for _, f := range idx {
			w.Int(int64(f))
		}
	}
	for _, asm := range m.modules {
		asm.kalman0.Checkpoint(w)
		asm.kalman1.Checkpoint(w)
		asm.band.Checkpoint(w)
		asm.band0.Checkpoint(w)
		asm.cEst.Checkpoint(w)
		w.Bools(asm.alpha)
		w.Floats(asm.gamma)
		w.Int(int64(asm.arrivedTL1))
		w.Float(asm.predictedTL1)
		w.Bool(asm.hasPredicted)
		w.Float(asm.pendingRatio)
		w.Float(asm.l0Ratio)
		asm.l1.Checkpoint(w)
		for _, l0 := range asm.l0s {
			l0.Checkpoint(w)
		}
	}
	m.kalmanG.Checkpoint(w)
	m.bandG.Checkpoint(w)
	if m.l2 != nil {
		m.l2.Checkpoint(w)
	}
	m.recorder.Checkpoint(w)
}

// restore reads back what checkpoint wrote.
func (r *run) restore(rd *ckpt.Reader) {
	m := r.m
	rd.Floats(r.respWindow)
	r.gammaModules = nil
	if rd.Bool() {
		r.gammaModules = make([]float64, len(m.modules))
		rd.Floats(r.gammaModules)
	}
	r.lambdaGRate = rd.Float()
	r.arrivedTL2 = rd.IntIn(0, maxCount, "arrivals")
	for i, idx := range r.freqIdx {
		for j := range idx {
			idx[j] = rd.IntIn(-1, len(m.modules[i].specs[j].FrequenciesHz)-1, "frequency index")
		}
	}
	for _, asm := range m.modules {
		asm.kalman0.RestoreCheckpoint(rd)
		asm.kalman1.RestoreCheckpoint(rd)
		asm.band.RestoreCheckpoint(rd)
		asm.band0.RestoreCheckpoint(rd)
		asm.cEst.RestoreCheckpoint(rd)
		rd.Bools(asm.alpha)
		rd.Floats(asm.gamma)
		asm.arrivedTL1 = rd.IntIn(0, maxCount, "arrivals")
		asm.predictedTL1 = rd.Float()
		asm.hasPredicted = rd.Bool()
		asm.pendingRatio = rd.Float()
		asm.l0Ratio = rd.Float()
		asm.l1.RestoreCheckpoint(rd)
		for _, l0 := range asm.l0s {
			l0.RestoreCheckpoint(rd)
		}
	}
	m.kalmanG.RestoreCheckpoint(rd)
	m.bandG.RestoreCheckpoint(rd)
	if m.l2 != nil {
		m.l2.RestoreCheckpoint(rd)
	}
	m.recorder.RestoreCheckpoint(rd)
}

// maxCount bounds a restored arrival counter: far past any period's
// arrivals at the fleet's 10⁶-per-bin cap.
const maxCount = 1 << 52
