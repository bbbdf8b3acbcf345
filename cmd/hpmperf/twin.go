package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"hierctl"
)

// daemonTelemetryRecords is hpmserve's default -telemetry-records.
const daemonTelemetryRecords = 4096

// tenantConfig mirrors hpmserve's createTenant for the tenant shapes the
// benchmark creates: the same cluster presets, the same fast learning
// grids, no per-tick frequency series, no per-tenant fan-out, the default
// store seeded like the tenant, and the daemon's recorder ring.
func tenantConfig(sp spec, seed int64, t int) (hierctl.TenantConfig, error) {
	var cs hierctl.ClusterSpec
	var err error
	switch {
	case sp.modules > 1:
		cs, err = hierctl.StandardCluster(sp.modules)
	case sp.moduleSize == 4:
		cs, err = hierctl.StandardModuleCluster()
	default:
		cs, err = hierctl.ScaledModuleCluster(sp.moduleSize)
	}
	if err != nil {
		return hierctl.TenantConfig{}, err
	}
	ts := tenantSeed(seed, t)
	cfg := hierctl.ExperimentOptions{Seed: ts, Fast: true}.Config()
	cfg.RecordFrequencies = false
	cfg.Parallelism = 1
	return hierctl.TenantConfig{
		Spec:             cs,
		Core:             cfg,
		Store:            hierctl.DefaultStoreConfig(),
		StoreSeed:        ts,
		BinSeconds:       binSeconds,
		TelemetryRecords: daemonTelemetryRecords,
	}, nil
}

// twinDigests replays the given tenants' whole input in process, through
// the same fleet code the daemon runs, and returns each tenant's digest
// of final state and close record. Runs are deterministic per seed, so a
// daemon that applied exactly the generated requests — across however
// many restarts — must produce the same bytes.
func twinDigests(in *inputs, tenants []int) (map[int][sha256.Size]byte, error) {
	f := hierctl.NewFleet(hierctl.FleetConfig{})
	defer f.Close()
	entries := make([]hierctl.BatchEntry, len(tenants))
	for i, t := range tenants {
		tc, err := tenantConfig(in.sp, in.seed, t)
		if err != nil {
			return nil, err
		}
		if err := f.CreateTenant(tenantID(t), tc); err != nil {
			return nil, fmt.Errorf("twin: %w", err)
		}
		entries[i] = hierctl.BatchEntry{Tenant: tenantID(t), Counts: in.counts[t][:in.sentBins(t)]}
	}
	results, err := f.ObserveBatch(entries)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	out := make(map[int][sha256.Size]byte, len(tenants))
	for i, t := range tenants {
		if r := results[i]; r.Err != nil || r.Applied != len(entries[i].Counts) {
			return nil, fmt.Errorf("twin: tenant %s applied %d of %d bins: %v", r.Tenant, r.Applied, len(entries[i].Counts), r.Err)
		}
		if out[t], err = closeDigest(f, t); err != nil {
			return nil, fmt.Errorf("twin: %w", err)
		}
	}
	return out, nil
}

// closeDigest reads tenant t's final state, closes it, and digests both
// the way the daemon serves them.
func closeDigest(f *hierctl.Fleet, t int) ([sha256.Size]byte, error) {
	st, err := f.State(tenantID(t))
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	rec, err := f.CloseTenant(tenantID(t))
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	state, err := json.Marshal(toStateDTO(st))
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	record, err := json.Marshal(toRecordDTO(rec))
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return tenantDigest(state, record), nil
}

// checkTwin compares the daemon's per-tenant digests with the in-process
// twin's for the given tenants, counting each as one checked operation.
func checkTwin(in *inputs, res *e2e, tenants []int) error {
	twin, err := twinDigests(in, tenants)
	if err != nil {
		return err
	}
	for _, t := range tenants {
		res.attempted++
		if twin[t] != res.tenantDigests[t] {
			res.fail(1, "decision digest of tenant %s differs from the in-process twin", tenantID(t))
		}
	}
	return nil
}
