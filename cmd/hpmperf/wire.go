package main

import (
	"hierctl"
)

// hpmperf's mirror of hpmserve's wire structs (cmd/hpmserve/server.go is
// package main and cannot be imported). Field order and tags match the
// daemon's, so the in-process twin's JSON is byte-comparable with the
// daemon's responses, and the JSON proxies time the same shapes.

type createReq struct {
	ID         string  `json:"id"`
	Modules    int     `json:"modules,omitempty"`
	ModuleSize int     `json:"moduleSize,omitempty"`
	Seed       int64   `json:"seed"`
	BinSeconds float64 `json:"binSeconds"`
	Fast       bool    `json:"fast"`
}

type observeReq struct {
	Count float64 `json:"count"`
}

type batchReq struct {
	Entries   []batchEntryReq `json:"entries"`
	Decisions bool            `json:"decisions"`
}

type batchEntryReq struct {
	Tenant string    `json:"tenant"`
	Counts []float64 `json:"counts"`
}

type batchEntryResp struct {
	Tenant       string       `json:"tenant"`
	Applied      int          `json:"applied"`
	Error        string       `json:"error,omitempty"`
	LastDecision *decisionDTO `json:"lastDecision,omitempty"`
}

type batchResp struct {
	Applied  int              `json:"applied"`
	Rejected int              `json:"rejected"`
	Results  []batchEntryResp `json:"results"`
}

type moduleDTO struct {
	Alpha   []bool    `json:"alpha"`
	Gamma   []float64 `json:"gamma"`
	FreqIdx []int     `json:"freqIdx"`
	FreqHz  []float64 `json:"freqHz"`
}

type decisionDTO struct {
	Bin          int         `json:"bin"`
	Time         float64     `json:"time"`
	GammaModules []float64   `json:"gammaModules,omitempty"`
	Modules      []moduleDTO `json:"modules"`
	MeanResponse float64     `json:"meanResponse"`
	Operational  int         `json:"operational"`
}

type stateDTO struct {
	ID           string       `json:"id"`
	Computers    int          `json:"computers"`
	Bins         int          `json:"bins"`
	Steps        int          `json:"steps"`
	SimTime      float64      `json:"simTime"`
	Quarantined  bool         `json:"quarantined,omitempty"`
	LastDecision *decisionDTO `json:"lastDecision,omitempty"`
}

type recordDTO struct {
	Completed     int64   `json:"completed"`
	Dropped       int64   `json:"dropped"`
	Energy        float64 `json:"energy"`
	Switches      int     `json:"switches"`
	MeanResponse  float64 `json:"meanResponse"`
	ResponseP95   float64 `json:"responseP95"`
	ViolationFrac float64 `json:"violationFrac"`
}

func toDecisionDTO(d hierctl.BinDecision) *decisionDTO {
	out := &decisionDTO{
		Bin:          d.Bin,
		Time:         d.Time,
		GammaModules: d.GammaModules,
		Modules:      make([]moduleDTO, len(d.Modules)),
		MeanResponse: d.MeanResponse,
		Operational:  d.Operational,
	}
	for i, m := range d.Modules {
		out.Modules[i] = moduleDTO{Alpha: m.Alpha, Gamma: m.Gamma, FreqIdx: m.FreqIdx, FreqHz: m.FreqHz}
	}
	return out
}

func toStateDTO(st hierctl.TenantState) stateDTO {
	out := stateDTO{
		ID:          st.ID,
		Computers:   st.Computers,
		Bins:        st.Bins,
		Steps:       st.Steps,
		SimTime:     st.SimTime,
		Quarantined: st.Quarantined,
	}
	if st.LastDecision != nil {
		out.LastDecision = toDecisionDTO(*st.LastDecision)
	}
	return out
}

func toRecordDTO(rec *hierctl.Record) recordDTO {
	return recordDTO{
		Completed:     rec.Completed,
		Dropped:       rec.Dropped,
		Energy:        rec.Energy,
		Switches:      rec.Switches,
		MeanResponse:  rec.MeanResponse(),
		ResponseP95:   rec.ResponseP95,
		ViolationFrac: rec.ViolationFrac,
	}
}
