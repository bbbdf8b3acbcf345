package fleet

import (
	"fmt"
	"io"
	"os"
)

// VerifyReport summarizes a read-only integrity scan of a snapshot or
// journal log (see VerifyJournal).
type VerifyReport struct {
	// Frames is the number of complete, checksum-clean frames scanned,
	// including segment starts and the artifact frames of older logs,
	// which are skipped.
	Frames int
	// Segments counts segment starts: 1 in a log whose frames share one
	// gob stream, 0 in an older log whose every frame is a stream of its
	// own.
	Segments int
	// BaseFrames/DeltaFrames/RemoveFrames break Frames down by kind;
	// BaseFrames counts both base kinds, checkpoints and the genesis bases
	// of older logs.
	BaseFrames, DeltaFrames, RemoveFrames int
	// Tenants is the number of tenants live at the end of the log.
	Tenants int
	// Observations is the total bins across live tenants after folding
	// every delta: each base's checkpointed bins plus the counts after it.
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
// length bound and CRC, the segment start first and no other frame
// defining a type, base frames naming a tenant, delta frames
// referencing a known tenant with no gap past the assembled bins — without
// building any tenant (no learning, no restore), so it is cheap enough to
// run against a large journal before trusting it. The scan is read-only:
// the log is never modified.
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
