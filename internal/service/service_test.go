package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/driver"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// q1SQL is a Q1-shaped single-table group-by; the name "q1" carries a
// calibrated QaaS billing spec, so /query responses include the dollar
// comparison.
const q1SQL = `
SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, COUNT(*) AS n
FROM lineitem
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`

const paramSQL = `
SELECT l_suppkey, COUNT(*) AS n FROM lineitem
WHERE l_quantity < :maxqty
GROUP BY l_suppkey ORDER BY l_suppkey`

// newLocalServer stands up the full stack on a real-time local deployment:
// resident session with result cache, uploaded TPC-H data, HTTP handler.
func newLocalServer(t *testing.T) (*httptest.Server, *driver.Session) {
	t.Helper()
	dep := driver.NewLocal()
	cfg := driver.DefaultConfig()
	cfg.ResultCacheEntries = 16
	sess := driver.NewSession(dep, cfg)
	env := simenv.NewImmediate()
	if err := sess.Install(); err != nil {
		t.Fatal(err)
	}
	g := tpch.Gen{SF: 0.002, Seed: 33}
	li := g.Generate()
	refs, err := sess.UploadTable(env, "tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	scfg := driver.DefaultStageConfig()
	scfg.Partitions = 2
	srv := New(Config{
		Session: sess,
		Runner:  GoRunner{},
		Tables:  driver.TableFiles{"lineitem": refs},
		SF:      0.002,
		Stage:   scfg,
		Queries: map[string]string{"q1": q1SQL},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, sess
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestServeSmoke is the CI smoke path: query, repeat (cache hit),
// invalidate, query again (miss), session and stats endpoints.
func TestServeSmoke(t *testing.T) {
	ts, _ := newLocalServer(t)

	resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{Name: "q1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: %d: %s", resp.StatusCode, raw)
	}
	var r1 QueryResponse
	if err := json.Unmarshal(raw, &r1); err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) == 0 || len(r1.Columns) != 4 {
		t.Fatalf("first query returned %d rows, %d columns", len(r1.Rows), len(r1.Columns))
	}
	if r1.Profile.CacheHit || r1.Profile.Workers == 0 {
		t.Errorf("first query profile = %+v, want fresh run with workers", r1.Profile)
	}
	if r1.QaaS == nil || r1.QaaS.AthenaUSD <= 0 || r1.QaaS.BigQueryUSD <= 0 {
		t.Errorf("q1 response missing QaaS comparison: %+v", r1.QaaS)
	}

	_, raw2 := postJSON(t, ts.URL+"/query", QueryRequest{Name: "q1"})
	var r2 QueryResponse
	if err := json.Unmarshal(raw2, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Profile.CacheHit {
		t.Error("repeated query missed the result cache")
	}
	if fmt.Sprint(r2.Rows) != fmt.Sprint(r1.Rows) {
		t.Error("cached rows differ from the fresh run's")
	}

	if resp, raw := postJSON(t, ts.URL+"/invalidate", InvalidateRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: %d: %s", resp.StatusCode, raw)
	}
	_, raw3 := postJSON(t, ts.URL+"/query", QueryRequest{Name: "q1"})
	var r3 QueryResponse
	if err := json.Unmarshal(raw3, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Profile.CacheHit {
		t.Error("query after /invalidate still hit the cache")
	}

	sresp, err := http.Get(ts.URL + "/session")
	if err != nil {
		t.Fatal(err)
	}
	var sess SessionJSON
	if err := json.NewDecoder(sresp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sess.Queries != 3 || sess.CacheHits != 1 || sess.Tables[0] != "lineitem" {
		t.Errorf("session stats = %+v, want 3 queries / 1 hit / [lineitem]", sess)
	}

	stresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		TotalUSD float64 `json:"totalUsd"`
	}
	if err := json.NewDecoder(stresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	stresp.Body.Close()
	if stats.TotalUSD <= 0 {
		t.Errorf("deployment meter total = %v, want > 0", stats.TotalUSD)
	}
}

// TestServeParams: :name placeholders substitute values; unknown and
// unbound parameters are 400s, not parser surprises.
func TestServeParams(t *testing.T) {
	ts, _ := newLocalServer(t)

	resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{SQL: paramSQL, Params: map[string]string{"maxqty": "24"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("param query: %d: %s", resp.StatusCode, raw)
	}
	var r QueryResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("param query returned no rows")
	}

	if resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{SQL: paramSQL, Params: map[string]string{"nosuch": "1"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown param: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{SQL: paramSQL}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unbound param: status %d, want 400", resp.StatusCode)
	}
}

// TestServeDESConcurrent: the DES runner batches concurrent HTTP requests
// into concurrent virtual-time queries on one simulated deployment — the
// service-layer face of the interleaved-session acceptance test.
func TestServeDESConcurrent(t *testing.T) {
	k := simclock.New()
	dep := driver.NewSimulated(k, 71)
	cfg := driver.DefaultConfig()
	cfg.PollInterval = 50 * time.Millisecond
	cfg.MaxInFlight = 12
	sess := driver.NewSession(dep, cfg)
	runner := NewDESRunner(k, 100*time.Millisecond)
	go runner.Serve()
	defer runner.Close()

	var refs driver.TableFiles
	if err := runner.Run(func(env simenv.Env) error {
		if err := sess.Install(); err != nil {
			return err
		}
		g := tpch.Gen{SF: 0.002, Seed: 33}
		li, err := sess.UploadTable(env, "tpch", "lineitem", g.Generate(), 4, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			return err
		}
		refs = driver.TableFiles{"lineitem": li}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	scfg := driver.DefaultStageConfig()
	scfg.Partitions = 2
	srv := New(Config{
		Session: sess,
		Runner:  runner,
		Tables:  refs,
		SF:      0.002,
		Stage:   scfg,
		Queries: map[string]string{"q1": q1SQL},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const N = 2
	responses := make([]QueryResponse, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{Name: "q1"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d: %s", i, resp.StatusCode, raw)
				return
			}
			if err := json.Unmarshal(raw, &responses[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(responses[0].Rows) == 0 {
		t.Fatal("no rows")
	}
	for i := 1; i < N; i++ {
		if fmt.Sprint(responses[i].Rows) != fmt.Sprint(responses[0].Rows) {
			t.Errorf("request %d rows diverge", i)
		}
	}
	ids := map[string]bool{}
	for _, r := range responses {
		if !r.Profile.CacheHit {
			ids[r.Profile.QueryID] = true
		}
	}
	if len(ids) == 0 {
		t.Error("no fresh query ran")
	}
	if strings.TrimSpace(responses[0].Profile.QueryID) == "" {
		t.Error("missing query ID")
	}
}

// TestSubstituteParams: substitution is one left-to-right pass with exact
// name lookup — prefix-colliding names cannot clash, values are never
// rescanned, and template literals still take placeholders.
func TestSubstituteParams(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sql     string
		params  map[string]string
		want    string
		wantErr string
	}{
		{name: "prefix collision", sql: "WHERE a = :d AND b = DATE :date",
			params: map[string]string{"d": "7", "date": "1994-01-01"},
			want:   "WHERE a = 7 AND b = DATE '1994-01-01'"},
		{name: "value holding a placeholder", sql: ":x, :y",
			params: map[string]string{"x": "p:y", "y": "q'"},
			want:   "'p:y', 'q'''"},
		{name: "value holding a colon identifier", sql: "WHERE c = :v",
			params: map[string]string{"v": "a:abc"},
			want:   "WHERE c = 'a:abc'"},
		{name: "inside a literal", sql: "INTERVAL ':delta' DAY",
			params: map[string]string{"delta": "90"},
			want:   "INTERVAL '90' DAY"},
		{name: "unbound placeholder", sql: "WHERE a < :qty AND b < :max",
			params: map[string]string{"qty": "3"}, wantErr: "unbound parameter :max"},
		{name: "unused param", sql: "WHERE a < :qty",
			params: map[string]string{"qty": "3", "extra": "1"}, wantErr: `param "extra" has no :extra placeholder`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Map iteration order varies run to run; the result must not.
			for run := 0; run < 50; run++ {
				got, err := substituteParams(tc.sql, tc.params)
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("run %d: err = %v, want %q", run, err, tc.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if got != tc.want {
					t.Fatalf("run %d: got %q, want %q", run, got, tc.want)
				}
			}
		})
	}
}

// TestServeRejectsOversizeBody: POST bodies past maxBodyBytes are refused
// with 413 before anything runs.
func TestServeRejectsOversizeBody(t *testing.T) {
	h := New(Config{}).Handler()
	body := `{"sql": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/query", "/invalidate"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, rec.Code)
		}
	}
}
