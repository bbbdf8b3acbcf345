package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hierctl"
	"hierctl/internal/race"
)

// replyWriter is a reusable http.ResponseWriter: an allocation pin measures
// the handler, not a fresh recorder per request.
type replyWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *replyWriter) Header() http.Header         { return w.header }
func (w *replyWriter) WriteHeader(code int)        { w.code = code }
func (w *replyWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// TestHandleObserveSteadyStateAllocs: a warm single-bin observe, served by
// the full handler (mux, recovery middleware, decode, fleet step, encode),
// allocates only what the ServeMux match does — at most 3 times. The
// body, the decision and the reply come from the pooled observeScratch,
// the decode takes the compact fast path, the fleet copies the decision
// into the scratch's, and the Content-Type header is the shared
// jsonContentType.
//
//hpm:pin mechanics
func TestHandleObserveSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	t.Cleanup(f.Close)
	h := newServer(f, 0).routes()
	createFastTenant(t, h, "a")

	body := strings.NewReader("")
	req := httptest.NewRequest(http.MethodPost, "/v1/tenants/a/observe", body)
	w := &replyWriter{header: http.Header{}}
	bodies := []string{`{"count":12}`, `{"count":40}`, `{"count":3}`, `{"count":27}`}
	bin := 0
	observe := func() {
		c := bodies[bin%len(bodies)]
		body.Reset(c)
		req.ContentLength = int64(len(c))
		w.body.Reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || !bytes.HasPrefix(w.body.Bytes(), []byte(`{"bin":`)) {
			t.Fatalf("observe bin %d = %d %s", bin, w.code, w.body.String())
		}
		bin++
	}
	// Warm the pools, the tenant's plant and the decision's width; the
	// test stays inside the tenant's first 512-bin log chunk.
	for i := 0; i < 100; i++ {
		observe()
	}
	allocs := testing.AllocsPerRun(100, observe)
	t.Logf("allocs per warm single-bin observe: %v", allocs)
	if allocs > 3 {
		t.Errorf("a warm single-bin observe costs %v allocs, want <= 3 (ServeMux matching)", allocs)
	}
}

// TestObserveScratchDroppedOnClose closes fleets under in-flight
// single-bin observes (run under -race), many times over: every call
// answers 200 with a decision or 503, and observe reports a 503's scratch
// unusable — its BinDecision is the destination of a shard job the
// shutdown may have abandoned mid-write. Each client reuses one scratch
// across its calls, as the pool does, and gives it up at the first call
// reported unusable. Then, with the fleet call stubbed to abandon a job
// that writes its destination after the reply went out, the handler's
// pool never yields that scratch, while a served call's scratch is pooled.
func TestObserveScratchDroppedOnClose(t *testing.T) {
	const clients = 4
	for round := 0; round < 8; round++ {
		f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 2})
		sv := newServer(f, 0)
		h := sv.routes()
		for i := 0; i < clients; i++ {
			createFastTenant(t, h, string(rune('a'+i)))
		}
		started := make(chan struct{}, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				sc := newObserveScratch()
				for call := 0; ; call++ {
					w := httptest.NewRecorder()
					reusable := sv.observe(w, httptest.NewRequest(http.MethodPost, "/v1/tenants/"+id+"/observe", strings.NewReader(`{"count":40}`)), id, sc)
					if call == 0 {
						started <- struct{}{}
					}
					switch {
					case w.Code == http.StatusServiceUnavailable:
						if reusable {
							t.Errorf("tenant %s call %d: 503 with its scratch reported reusable", id, call)
						}
						return
					case w.Code != http.StatusOK || !reusable || !strings.HasPrefix(w.Body.String(), fmt.Sprintf(`{"bin":%d,`, call)):
						t.Errorf("tenant %s call %d: %d %.80s, reusable %v", id, call, w.Code, w.Body.String(), reusable)
						return
					}
				}
			}(string(rune('a' + i)))
		}
		for i := 0; i < clients; i++ {
			<-started
		}
		f.Close()
		wg.Wait()
	}

	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	t.Cleanup(f.Close)
	sv := newServer(f, 0)
	release, written := make(chan struct{}), make(chan struct{})
	var abandoned *hierctl.BinDecision
	sv.observeInto = func(id string, count float64, dst *hierctl.BinDecision) error {
		if id == "closing" {
			abandoned = dst
			go func() {
				<-release
				dst.Bin = -1 // the abandoned job finishing its copy
				close(written)
			}()
			return hierctl.ErrFleetClosed
		}
		dst.Bin = int(count)
		return nil
	}
	h := sv.routes()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tenants/closing/observe", strings.NewReader(`{"count":5}`)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("observe as the fleet closes = %d %s, want 503", w.Code, w.Body.String())
	}
	for {
		sc, _ := sv.observes.Get().(*observeScratch)
		if sc == nil {
			break
		}
		if &sc.dec == abandoned {
			t.Fatal("the pool handed back the scratch whose decision an abandoned job still writes")
		}
	}
	close(release)
	<-written

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tenants/open/observe", strings.NewReader(`{"count":5}`)))
	if w.Code != http.StatusOK || !strings.HasPrefix(w.Body.String(), `{"bin":5,`) {
		t.Fatalf("served observe = %d %s", w.Code, w.Body.String())
	}
	if sc, _ := sv.observes.Get().(*observeScratch); sc == nil && !race.Enabled {
		t.Error("a served observe's scratch was not pooled: the check above proves nothing")
	}
}
