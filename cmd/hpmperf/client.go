package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is one keep-alive connection to the daemon: a worker owns one
// and issues its requests on it one at a time.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer // response body of the last call; reused
	// Exact wire payload counts (bodies only, no headers).
	sentBytes, recvBytes int64
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the response body,
// which stays valid until the client's next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	c.sentBytes += int64(len(body))
	c.recvBytes += int64(c.buf.Len())
	return resp.StatusCode, c.buf.Bytes(), nil
}

// tally counts operations against the number attempted; the first
// failure is kept so a failing run can say which check tripped.
type tally struct {
	attempted, failed int
	first             string
}

func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == "" {
		t.first = o.first
	}
}

// call is one pre-encoded request of the measured phase.
type call struct {
	path    string
	body    []byte
	entries int // batch entries (1 for a single observe)
	bins    int // bins every entry carries
	wantBin int // single observe: the bin index the decision must close
}

// issue sends one call and checks the reply. It returns when the reply
// had been read in full — before it was decoded, so a latency taken to
// that instant holds none of the load generator's own JSON work.
func (c *client) issue(k call, t *tally) time.Time {
	status, body, err := c.do(http.MethodPost, k.path, k.body)
	done := time.Now()
	checkReply(k, status, body, err, t)
	return done
}

// checkReply fails closed: a non-2xx (429 included) fails every entry of
// the call, a per-entry error or short apply fails that entry.
func checkReply(k call, status int, body []byte, err error, t *tally) {
	t.attempted += k.entries
	switch {
	case err != nil:
		t.fail(k.entries, "POST %s: %v", k.path, err)
		return
	case status != http.StatusOK:
		t.fail(k.entries, "POST %s: status %d: %s", k.path, status, bytes.TrimSpace(body))
		return
	}
	if k.wantBin >= 0 {
		var dec decisionDTO
		if err := json.Unmarshal(body, &dec); err != nil {
			t.fail(1, "POST %s: decode decision: %v", k.path, err)
		} else if dec.Bin != k.wantBin || len(dec.Modules) == 0 {
			t.fail(1, "POST %s: decision closes bin %d, want %d", k.path, dec.Bin, k.wantBin)
		}
		return
	}
	var resp batchResp
	if err := json.Unmarshal(body, &resp); err != nil {
		t.fail(k.entries, "POST %s: decode batch reply: %v", k.path, err)
		return
	}
	if len(resp.Results) != k.entries {
		t.fail(k.entries, "POST %s: %d results for %d entries", k.path, len(resp.Results), k.entries)
		return
	}
	for _, r := range resp.Results {
		if r.Error != "" || r.Applied != k.bins {
			t.fail(1, "POST %s: tenant %s applied %d of %d bins: %s", k.path, r.Tenant, r.Applied, k.bins, r.Error)
		}
	}
}
