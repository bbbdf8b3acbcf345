package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"hierctl"
)

// FuzzBatchDecode attacks the reused decode destination. The input is a
// sequence of /v1/observe:batch bodies (NUL-separated) served one after
// another out of one batchScratch, recycled between them as the pool does;
// each must decode to the same request, and draw the same status and reply
// from the handler, as it does out of a fresh scratch — whatever the
// bodies before it left behind. encoding/json only overwrites what a body
// mentions, so this is the test that an omitted field, a null, a shorter
// array or a duplicate key never inherits an earlier request's value. The
// committed corpus (testdata/fuzz/FuzzBatchDecode) holds those shapes; the
// fleet call is the echo stub, so a reply is a pure function of the
// decoded request.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(`{"entries":[{"tenant":"a","counts":[1,2,3]}],"decisions":true}` + "\x00" + `{"entries":[{"tenant":"b"}]}`))
	fl := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	f.Cleanup(fl.Close)
	sv := newServer(fl, 0)
	sv.batch = echoBatch
	serve := func(sc *batchScratch, body []byte) (int, string) {
		w := httptest.NewRecorder()
		sv.observeBatch(w, httptest.NewRequest(http.MethodPost, "/v1/observe:batch", bytes.NewReader(body)), sc)
		return w.Code, w.Body.String()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reused := new(batchScratch)
		for i, body := range bytes.Split(data, []byte{0}) {
			fresh := new(batchScratch)
			wantCode, wantReply := serve(fresh, body)
			gotCode, gotReply := serve(reused, body)
			if gotCode != wantCode || gotReply != wantReply {
				t.Fatalf("body %d %q: reused scratch answered %d %s, a fresh one %d %s", i, body, gotCode, gotReply, wantCode, wantReply)
			}
			if !sameBatchReq(&reused.req, &fresh.req) {
				t.Fatalf("body %d %q: reused scratch decoded %+v, a fresh one %+v", i, body, reused.req, fresh.req)
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
