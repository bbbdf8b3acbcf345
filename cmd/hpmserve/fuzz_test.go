package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"hierctl"
)

// FuzzBatchDecode attacks the batch decode twice over. The input is a
// sequence of /v1/observe:batch bodies (NUL-separated) served one after
// another out of one batchScratch, recycled between them as the pool does.
//
// First, the reused decode destination: each body must decode to the same
// request, and draw the same status and reply from the handler, as it does
// out of a fresh scratch — whatever the bodies before it left behind.
// encoding/json only overwrites what a body mentions, and parseBatch
// reuses the entries and their Counts arrays, so this is the test that an
// omitted field, a null, a shorter array or a duplicate key never inherits
// an earlier request's value.
//
// Second, parseBatch, the strict fast decoder of the compact shape: when it
// accepts a body, json.Unmarshal into a fresh request accepts it too, to
// the same ids, the same counts bit for bit and the same decisions flag;
// and the handler answers every body with the same status and reply as a
// twin that decodes with json.Unmarshal alone. The fleet registers a few
// of the ids the corpus uses, so both the resolved and the copied id run.
//
// The committed corpus (testdata/fuzz/FuzzBatchDecode) holds those shapes
// and the compact shape's edges; the fleet call is the echo stub, so a
// reply is a pure function of the decoded request.
//
//hpm:pin fuzz
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(`{"entries":[{"tenant":"a","counts":[1,2,3]}],"decisions":true}` + "\x00" + `{"entries":[{"tenant":"b"}]}`))
	fl := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	f.Cleanup(fl.Close)
	sv := newServer(fl, 0)
	for _, id := range []string{"a", "t0", "t1"} {
		createFastTenant(f, sv.routes(), id)
	}
	sv.batch = echoBatch
	const path = "/v1/observe:batch"
	serve := func(sc *batchScratch, body []byte) (int, string) {
		w := httptest.NewRecorder()
		sv.observeBatch(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), sc)
		return w.Code, w.Body.String()
	}
	twin := func(body []byte) (int, string) {
		w := httptest.NewRecorder()
		sc := new(batchScratch)
		if err := decodeBody(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), maxBatchBodyBytes, &sc.body, &sc.req); err != nil {
			writeError(w, err)
		} else {
			sv.applyBatch(w, sc)
		}
		return w.Code, w.Body.String()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reused := new(batchScratch)
		for i, body := range bytes.Split(data, []byte{0}) {
			var fast batchReq
			if parseBatch(body, &fast, fl) {
				var req batchReq
				if err := json.Unmarshal(body, &req); err != nil || !sameBatchReq(&fast, &req) {
					t.Fatalf("body %d %q: the fast path decoded %+v, json.Unmarshal %+v, %v", i, body, fast, req, err)
				}
			}
			fresh := new(batchScratch)
			wantCode, wantReply := serve(fresh, body)
			gotCode, gotReply := serve(reused, body)
			if gotCode != wantCode || gotReply != wantReply {
				t.Fatalf("body %d %q: reused scratch answered %d %s, a fresh one %d %s", i, body, gotCode, gotReply, wantCode, wantReply)
			}
			if !sameBatchReq(&reused.req, &fresh.req) {
				t.Fatalf("body %d %q: reused scratch decoded %+v, a fresh one %+v", i, body, reused.req, fresh.req)
			}
			if twinCode, twinReply := twin(body); wantCode != twinCode || wantReply != twinReply {
				t.Fatalf("body %d %q: the handler answered %d %s, a json.Unmarshal-only twin %d %s", i, body, wantCode, wantReply, twinCode, twinReply)
			}
			reused.recycle()
		}
	})
}

// sameBatchReq compares two decoded requests the way the handler reads
// them: a nil Counts and an empty one are the same run of no bins.
func sameBatchReq(a, b *batchReq) bool {
	if a.Decisions != b.Decisions || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		x, y := &a.Entries[i], &b.Entries[i]
		if x.Tenant != y.Tenant || len(x.Counts) != len(y.Counts) {
			return false
		}
		for j := range x.Counts {
			if math.Float64bits(x.Counts[j]) != math.Float64bits(y.Counts[j]) {
				return false
			}
		}
	}
	return true
}

// FuzzObserveDecode is the differential test of parseObserve, the strict
// fast decoder of single-bin /observe bodies. For any body: when the fast
// path accepts it, json.Unmarshal into observeReq accepts it too, to the
// same float64 bit for bit; and the handler answers it with the same
// status and reply as a twin that decodes with json.Unmarshal alone. The
// fleet call is a stub echoing the count into the decision, so a reply is
// a pure function of the decoded count. The committed corpus
// (testdata/fuzz/FuzzObserveDecode) holds the edges of the compact shape:
// -0, a number out of range, a leading zero, a bare or leading point, key
// case, null, a duplicate key and trailing whitespace.
//
//hpm:pin fuzz
func FuzzObserveDecode(f *testing.F) {
	fl := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	f.Cleanup(fl.Close)
	sv := newServer(fl, 0)
	sv.observeInto = func(id string, count float64, dst *hierctl.BinDecision) error {
		*dst = hierctl.BinDecision{Time: count}
		return nil
	}
	h := sv.routes()
	const path = "/v1/tenants/a/observe"
	twin := func(body []byte) (int, string) {
		w := httptest.NewRecorder()
		var req observeReq
		sc := newObserveScratch()
		if err := decodeBody(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), maxBodyBytes, &sc.body, &req); err != nil {
			writeError(w, err)
		} else {
			sv.observeCount(w, "a", req.Count, sc)
		}
		return w.Code, w.Body.String()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if count, ok := parseObserve(body); ok {
			var req observeReq
			if err := json.Unmarshal(body, &req); err != nil || math.Float64bits(req.Count) != math.Float64bits(count) {
				t.Fatalf("%q: the fast path decoded %v (%#x), json.Unmarshal %v (%#x), %v",
					body, count, math.Float64bits(count), req.Count, math.Float64bits(req.Count), err)
			}
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if wantCode, wantReply := twin(body); w.Code != wantCode || w.Body.String() != wantReply {
			t.Fatalf("%q: the handler answered %d %s, a json.Unmarshal-only twin %d %s", body, w.Code, w.Body.String(), wantCode, wantReply)
		}
	})
}
