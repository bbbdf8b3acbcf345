package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
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
	if rep.Segments != 1 {
		t.Errorf("segments = %d, want the one the log opens with", rep.Segments)
	}
	if rep.Frames != rep.Segments+rep.BaseFrames+rep.DeltaFrames+rep.RemoveFrames {
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

// sealFrame frames payload by its length and checksum.
func sealFrame(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// legacyFrame seals v as a frame of a log written before the shared
// stream: the whole gob stream of a fresh encoder, framed by length and
// checksum.
func legacyFrame(t testing.TB, v any) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatal(err)
	}
	return sealFrame(payload.Bytes())
}

// legacyLog rewrites a log in the layout written before the shared
// stream: legacyMagic, then each base, delta and remove frame encoded
// from the union type by an encoder of its own.
func legacyLog(t testing.TB, log []byte) []byte {
	t.Helper()
	out := []byte(legacyMagic)
	if _, err := foldLog(bytes.NewReader(log), func(fr *logFrame, _ []float64) {
		out = append(out, legacyFrame(t, logFrame{Kind: fr.Kind, Base: fr.Base, ID: fr.ID, From: fr.From, Counts: fr.Counts})...)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// artifactFrame seals an artifact frame as logs once wrote them: its kind,
// a content address, the artifact kind and the serialized artifact.
func artifactFrame(t *testing.T, digest []byte) []byte {
	t.Helper()
	return legacyFrame(t, struct {
		Kind     byte
		Digest   []byte
		Artifact byte
		Data     []byte
	}{frameArtifact, digest, 1, []byte("serialized map g")})
}

// TestVerifyJournalArtifactFrames: the artifact frames of older logs are
// skipped once their checksum passes — anywhere in the log, repeated, or
// with a digest their bytes do not hash to — and counted as frames only;
// both consumers of the fold give one verdict. An artifact frame written
// after a torn frame cannot be reached — the torn frame's length header
// swallows it — so the log is refused as corrupt, never half-read. In a
// log of one shared stream, which no writer of artifact frames produced, a
// frame that is a stream of its own is corruption.
func TestVerifyJournalArtifactFrames(t *testing.T) {
	path, wantObs := buildVerifyJournal(t)
	streamed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	withArtifact := append(append([]byte(nil), streamed...), artifactFrame(t, nil)...)
	if rep, err := verifyAndRecover(t, "artifact frame in a streamed log", withArtifact); err == nil || rep.TornTail {
		t.Errorf("artifact frame in a streamed log: got report %+v, err %v; want corruption", rep, err)
	}
	clean := legacyLog(t, streamed)
	want, err := VerifyJournal(bytes.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	art := artifactFrame(t, []byte("not the digest of its data"))
	head := len(snapshotMagic)
	with := append(append(append([]byte(nil), clean[:head]...), art...), clean[head:]...)
	with = append(append(with, art...), art...)
	rep, err := verifyAndRecover(t, "artifact frames", with)
	if err != nil {
		t.Fatalf("artifact frames refused: %v", err)
	}
	if rep.Frames != want.Frames+3 || rep.Tenants != 2 || rep.Observations != wantObs || rep.BaseFrames != want.BaseFrames {
		t.Errorf("artifact frames changed the fold: %+v, want %+v plus 3 frames", rep, want)
	}

	torn := append(append([]byte(nil), clean[:len(clean)-7]...), art...)
	rep, err = verifyAndRecover(t, "artifact frame after torn tail", torn)
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
	for name, fr := range map[string]logFrame{
		"delta gap":            {Kind: frameDelta, ID: "a", From: 99, Counts: []float64{400}},
		"delta unknown tenant": {Kind: frameDelta, ID: "gone", From: 0, Counts: []float64{400}},
		"base without tenant":  {Kind: frameBase},
		"base with empty id":   {Kind: frameBase, Base: &tenantSnap{}},
		"unknown kind":         {Kind: 9, ID: "a"},
	} {
		buf := bytes.NewBuffer(append([]byte(nil), clean...))
		if _, err := appendWriter(t, buf).frame(&fr); err != nil {
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
	}
}

// TestVerifyJournalBadGobLength: a checksum-clean payload whose first
// byte is no integer length gob writes (0x80 to 0xF7), or a length past
// the payload's end, is refused as corruption — never a panic — whether it
// stands where the segment start belongs or after it.
func TestVerifyJournalBadGobLength(t *testing.T) {
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := f.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{{0x80}, {0x80, 0x80}, {0xf7, 1, 2}, {0x81, 0x80, 0x00}, {0x03, 0x80}, {0xf8, 1}, {0x02, 0xff}} {
		for _, head := range [][]byte{[]byte(snapshotMagic), snap.Bytes()} {
			log := append(append([]byte(nil), head...), sealFrame(payload)...)
			rep, err := verifyAndRecover(t, "bad gob length", log)
			if err == nil || rep.TornTail {
				t.Errorf("payload % x after %d bytes: report %+v, err %v; want corruption", payload, len(head), rep, err)
			}
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

// TestTornHeaderAllocatesWhatArrived: a log whose last frame header claims
// maxFramePayload with 16 bytes behind it is a torn tail, and reading it
// allocates for the bytes that are there, not the 64 MiB the header names.
func TestTornHeaderAllocatesWhatArrived(t *testing.T) {
	log := []byte(snapshotMagic)
	log = binary.LittleEndian.AppendUint32(log, maxFramePayload)
	log = binary.LittleEndian.AppendUint32(log, 0)
	log = append(log, make([]byte, 16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := VerifyJournal(bytes.NewReader(log))
	runtime.ReadMemStats(&after)
	if err != nil || !rep.TornTail || rep.Frames != 0 {
		t.Fatalf("report %+v, err %v; want a torn tail and no frames", rep, err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Fatalf("reading a torn 16-byte payload allocated %d bytes, want < 1 MiB", grown)
	}
}
