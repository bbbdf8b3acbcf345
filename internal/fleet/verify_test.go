package fleet

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// buildVerifyJournal writes a journal with two tenants, a delta append, a
// remove frame, and one quarantined tenant, and returns its path plus the
// expected live observation total.
func buildVerifyJournal(t *testing.T) (path string, wantObs int64) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "fleet.log")
	f := panicFleet(t, 2)
	j, err := OpenJournal(f, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tc := quarantineTenantConfig()
	for _, id := range []string{"a", "b", "gone"} {
		if err := f.CreateTenant(id, tc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		for _, id := range []string{"a", "b", "gone"} {
			if _, err := f.Observe(id, 400); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Append(); err != nil { // base frames for all three
		t.Fatal(err)
	}
	if _, err := f.Observe("a", 450); err != nil { // delta for a
		t.Fatal(err)
	}
	if _, err := f.Observe("b", panicCount); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatal("tenant b did not quarantine")
	}
	if _, err := f.CloseTenant("gone"); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(); err != nil { // delta + quarantine re-base + remove
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, 3 + 1 + 3 // a: 4 bins, b: 3 clean bins, gone: removed
}

// verifyAndRecover runs both consumers of the frame-log fold over the same
// bytes — the scan-only VerifyJournal and the torn-tolerant restore
// OpenJournal recovers with — and fails unless they reach the same
// verdict: both refuse, or both accept and agree on the live tenants.
func verifyAndRecover(t *testing.T, name string, data []byte) (*VerifyReport, error) {
	t.Helper()
	rep, verr := VerifyJournal(bytes.NewReader(data))
	f := New(Config{Shards: 2})
	defer f.Close()
	rerr := f.restoreLog(bytes.NewReader(data), true)
	if (verr == nil) != (rerr == nil) {
		t.Errorf("%s: verify says %v, recovery says %v", name, verr, rerr)
	}
	if verr == nil && rerr == nil && len(f.Tenants()) != rep.Tenants {
		t.Errorf("%s: recovery found %d tenants, verify reported %d", name, len(f.Tenants()), rep.Tenants)
	}
	return rep, verr
}

func TestVerifyJournalClean(t *testing.T) {
	path, wantObs := buildVerifyJournal(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verifyAndRecover(t, "clean", data)
	if err != nil {
		t.Fatalf("verify of a clean journal failed: %v", err)
	}
	if rep.TornTail {
		t.Error("clean journal reported a torn tail")
	}
	if rep.Tenants != 2 {
		t.Errorf("live tenants = %d, want 2", rep.Tenants)
	}
	if rep.Observations != wantObs {
		t.Errorf("observations = %d, want %d", rep.Observations, wantObs)
	}
	if rep.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", rep.Quarantined)
	}
	if rep.RemoveFrames != 1 {
		t.Errorf("remove frames = %d, want 1", rep.RemoveFrames)
	}
	if rep.BaseFrames < 4 { // 3 initial bases + b's quarantine re-base
		t.Errorf("base frames = %d, want >= 4", rep.BaseFrames)
	}
	if rep.ArtifactFrames != 1 { // three same-shape tenants, one learned map
		t.Errorf("artifact frames = %d, want 1", rep.ArtifactFrames)
	}
	if rep.Frames != rep.BaseFrames+rep.DeltaFrames+rep.RemoveFrames+rep.ArtifactFrames {
		t.Errorf("frame counts don't add up: %+v", rep)
	}

	// The verified log must still recover through the journal itself:
	// verify is a preflight for the same structure OpenJournal replays.
	f2 := New(Config{Shards: 2})
	defer f2.Close()
	j2, err := OpenJournal(f2, path, JournalConfig{})
	if err != nil {
		t.Fatalf("recovery of verified journal: %v", err)
	}
	defer j2.Close()
	if got := len(f2.Tenants()); got != rep.Tenants {
		t.Errorf("recovery found %d tenants, verify reported %d", got, rep.Tenants)
	}
}

func TestVerifyJournalTornTail(t *testing.T) {
	path, _ := buildVerifyJournal(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the final frame short, as a crash mid-append would.
	rep, err := verifyAndRecover(t, "torn tail", data[:len(data)-7])
	if err != nil {
		t.Fatalf("torn tail must be reported, not fatal: %v", err)
	}
	if !rep.TornTail {
		t.Error("truncated journal did not report a torn tail")
	}
	// Strict restore is the one consumer that refuses a torn log.
	f := New(Config{Shards: 2})
	defer f.Close()
	if err := f.Restore(bytes.NewReader(data[:len(data)-7])); err == nil {
		t.Error("strict Restore accepted a torn log")
	}
}

// firstArtifactFrame returns the first artifact frame of a clean log.
func firstArtifactFrame(t *testing.T, log []byte) logFrame {
	t.Helper()
	var art *logFrame
	if _, err := foldLog(bytes.NewReader(log), func(fr *logFrame, _ []float64) {
		if fr.Kind == frameArtifact && art == nil {
			held := *fr
			art = &held
		}
	}); err != nil {
		t.Fatal(err)
	}
	if art == nil {
		t.Fatal("log holds no artifact frame")
	}
	return *art
}

// TestVerifyJournalArtifactFrames: artifact frames in places a healthy
// journal never puts them must still get one verdict from both consumers
// of the fold. A repeated artifact frame is idempotent (same digest, same
// verified bytes) and changes nothing; an artifact frame written after a
// torn frame cannot be reached — the torn frame's length header swallows
// it — so the log is refused as corrupt, never half-read.
func TestVerifyJournalArtifactFrames(t *testing.T) {
	path, wantObs := buildVerifyJournal(t)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	art := firstArtifactFrame(t, clean)

	dup := bytes.NewBuffer(append([]byte(nil), clean...))
	if _, err := (&frameWriter{w: dup}).frame(&art); err != nil {
		t.Fatal(err)
	}
	rep, err := verifyAndRecover(t, "duplicate artifact frame", dup.Bytes())
	if err != nil {
		t.Fatalf("duplicate artifact frame refused: %v", err)
	}
	if rep.ArtifactFrames != 2 || rep.Tenants != 2 || rep.Observations != wantObs {
		t.Errorf("duplicate artifact frame changed the fold: %+v", rep)
	}

	torn := bytes.NewBuffer(append([]byte(nil), clean[:len(clean)-7]...))
	if _, err := (&frameWriter{w: torn}).frame(&art); err != nil {
		t.Fatal(err)
	}
	rep, err = verifyAndRecover(t, "artifact frame after torn tail", torn.Bytes())
	if err == nil || rep.TornTail {
		t.Errorf("artifact frame after a torn frame: got report %+v, err %v; want corruption", rep, err)
	}
}

// TestVerifyJournalCorruption feeds every defect the fold refuses — a
// checksum mismatch on a complete frame, and each structural rule broken
// by a well-formed frame appended to a clean log — to both of its
// consumers: each must be an error (never a torn tail) for verify and
// recovery alike.
func TestVerifyJournalCorruption(t *testing.T) {
	path, _ := buildVerifyJournal(t)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the log: the frame is still
	// complete, so this must surface as a checksum error, not a torn tail.
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0xff
	cases := map[string][]byte{"crc flip": flipped}
	absent := sha256.Sum256([]byte("no artifact frame holds this"))
	art := firstArtifactFrame(t, clean)
	wantErr := map[string]error{
		"reference to missing artifact": errArtifactMissing,
		"reference to wrong kind":       errArtifactMissing,
		"artifact digest mismatch":      errArtifactDigest,
		"artifact without digest":       errArtifactDigest,
	}
	for name, fr := range map[string]logFrame{
		"reference to missing artifact": {Kind: frameBase, Base: &tenantSnap{ID: "x", GMaps: []artifactRef{{Key: "k", Digest: absent[:]}}}},
		"reference to wrong kind":       {Kind: frameBase, Base: &tenantSnap{ID: "x", Trees: []artifactRef{{Key: "k", Digest: art.Digest}}}},
		"artifact digest mismatch":      {Kind: frameArtifact, Artifact: artifactGMap, Digest: absent[:], Data: []byte("other bytes")},
		"artifact without digest":       {Kind: frameArtifact, Artifact: artifactGMap, Data: []byte("bytes")},
		"delta gap":                     {Kind: frameDelta, ID: "a", From: 99, Counts: []float64{400}},
		"delta unknown tenant":          {Kind: frameDelta, ID: "gone", From: 0, Counts: []float64{400}},
		"base without tenant":           {Kind: frameBase},
		"base with empty id":            {Kind: frameBase, Base: &tenantSnap{}},
		"unknown kind":                  {Kind: 9, ID: "a"},
	} {
		buf := bytes.NewBuffer(append([]byte(nil), clean...))
		if _, err := (&frameWriter{w: buf}).frame(&fr); err != nil {
			t.Fatal(err)
		}
		cases[name] = buf.Bytes()
	}
	for name, data := range cases {
		rep, err := verifyAndRecover(t, name, data)
		if err == nil {
			t.Errorf("%s: verify accepted a corrupted journal: %+v", name, rep)
		}
		if rep.TornTail {
			t.Errorf("%s: corruption misreported as a torn tail", name)
		}
		if want := wantErr[name]; want != nil && !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}
}

func TestVerifyJournalBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(path, []byte("definitely not a snapshot log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyJournalFile(path); err == nil {
		t.Error("verify accepted a file without the snapshot magic")
	}
}
