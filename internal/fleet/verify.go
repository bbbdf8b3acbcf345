package fleet

import (
	"fmt"
	"io"
	"os"
)

// VerifyReport summarizes a read-only integrity scan of a snapshot or
// journal log (see VerifyJournal).
type VerifyReport struct {
	// Frames is the number of complete, checksum-clean frames scanned.
	Frames int
	// BaseFrames/DeltaFrames/RemoveFrames/ArtifactFrames break Frames down
	// by kind. ArtifactFrames counts serialized learning artifacts — one
	// per distinct content, not per tenant; zero in logs written before
	// artifact frames existed (their base frames embed the blobs).
	BaseFrames, DeltaFrames, RemoveFrames, ArtifactFrames int
	// Tenants is the number of tenants live at the end of the log.
	Tenants int
	// Observations is the total observation-log length across live
	// tenants after folding every delta.
	Observations int64
	// Quarantined counts live tenants whose persisted quarantine latch is
	// set.
	Quarantined int
	// TornTail reports a final frame cut short by EOF — the signature of
	// a crash mid-append. Recoverable damage: OpenJournal restores up to
	// the last durable frame, so a torn tail is reported, not an error.
	TornTail bool
}

// VerifyJournal scans a snapshot/journal log and checks every integrity
// property the restore path relies on — the magic header, each frame's
// length bound and CRC, artifact frames hashing to their digest, base
// frames naming a tenant and referencing only artifacts already in the
// log, delta frames referencing a known tenant with no gap past the
// assembled log — without building any tenant (no artifact decode, no
// replay), so it is cheap
// enough to run against a large journal before trusting it. The scan is
// read-only: the log is never modified.
//
// A torn final frame is recoverable crash damage: it sets
// VerifyReport.TornTail and the scan stops cleanly. Any other defect — a
// checksum mismatch, an out-of-range length, a structural violation — is
// corruption the recovery path would also refuse, returned as an error
// alongside the report of everything scanned up to that point.
func VerifyJournal(r io.Reader) (*VerifyReport, error) {
	return foldLog(r, nil)
}

// VerifyJournalFile opens path read-only and runs VerifyJournal on it.
func VerifyJournalFile(path string) (*VerifyReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: verify journal: %w", err)
	}
	defer f.Close()
	return VerifyJournal(f)
}
