// Command lambada-serve runs the resident query service: one long-lived
// session over a simulated deployment, fronted by an HTTP/JSON endpoint.
// The worker function is installed and the TPC-H data uploaded once at
// startup; every POST /query after that runs on the warm session — repeated
// queries hit the result cache, concurrent requests interleave on the
// shared fleet under the deployment-wide admission cap.
//
// Usage:
//
//	lambada-serve -sf 0.005 -addr 127.0.0.1:8080
//	lambada-serve -mode des -max-inflight 64
//	lambada-serve -smoke        # self-test: start, query, verify, exit
//
//	curl -d '{"name":"q6"}' localhost:8080/query
//	curl -d '{"sql":"SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < :q","params":{"q":"24"}}' localhost:8080/query
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/driver"
	"lambada/internal/lpq"
	"lambada/internal/service"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

const q1SQL = `
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price,
       AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`

const q6SQL = `
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.0499999 AND 0.0700001 AND l_quantity < 24`

const q12SQL = `
SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS total
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE '1995-01-01' AND l_receiptdate < DATE '1996-01-01'
  AND l_commitdate < l_receiptdate
GROUP BY o_orderpriority
ORDER BY o_orderpriority`

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		mode     = flag.String("mode", "local", "local (goroutine workers, real time) or des (virtual-time simulation; concurrent requests batch into one interleaved run)")
		sf       = flag.Float64("sf", 0.005, "TPC-H scale factor of the generated data")
		files    = flag.Int("files", 8, "lpq files per table")
		seed     = flag.Int64("seed", 42, "data generation seed")
		inflight = flag.Int("max-inflight", 64, "deployment-wide in-flight invocation cap (0 = uncapped legacy pacing)")
		cache    = flag.Int("cache", 32, "result cache entries (0 disables caching)")
		parts    = flag.Int("partitions", 0, "exchange boundary fan-in (0 = autotune)")
		window   = flag.Duration("window", 100*time.Millisecond, "DES request batching window (with -mode des)")
		smoke    = flag.Bool("smoke", false, "self-test: start the service, run queries against it, verify, exit")
	)
	flag.Parse()

	if err := run(*addr, *mode, *sf, *files, *seed, *inflight, *cache, *parts, *window, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "lambada-serve:", err)
		os.Exit(1)
	}
}

func run(addr, mode string, sf float64, files int, seed int64, inflight, cache, parts int, window time.Duration, smoke bool) error {
	cfg := driver.DefaultConfig()
	cfg.MaxInFlight = inflight
	cfg.ResultCacheEntries = cache

	var dep *driver.Deployment
	var runner service.Runner
	switch mode {
	case "des":
		k := simclock.New()
		dep = driver.NewSimulated(k, seed)
		cfg.PollInterval = 50 * time.Millisecond
		r := service.NewDESRunner(k, window)
		go r.Serve()
		defer r.Close()
		runner = r
	case "local":
		dep = driver.NewLocal()
		runner = service.GoRunner{}
	default:
		return fmt.Errorf("unknown -mode %q (local or des)", mode)
	}

	sess := driver.NewSession(dep, cfg)
	tables := driver.TableFiles{}
	fmt.Printf("installing worker function and generating TPC-H data at SF %g...\n", sf)
	if err := runner.Run(func(env simenv.Env) error {
		if err := sess.Install(); err != nil {
			return err
		}
		g := tpch.Gen{SF: sf, Seed: seed}
		li := g.Generate()
		opts := lpq.WriterOptions{RowGroupRows: 65536, Compression: lpq.Gzip}
		refs, err := sess.UploadTable(env, "tpch", "lineitem", li, files, opts)
		if err != nil {
			return err
		}
		tables["lineitem"] = refs
		of := files / 2
		if of < 1 {
			of = 1
		}
		orefs, err := sess.UploadTable(env, "tpch", "orders", g.OrdersFor(li), of, opts)
		if err != nil {
			return err
		}
		tables["orders"] = orefs
		return nil
	}); err != nil {
		return err
	}

	scfg := driver.DefaultStageConfig()
	scfg.Partitions = parts
	srv := service.New(service.Config{
		Session: sess,
		Runner:  runner,
		Tables:  tables,
		SF:      sf,
		Stage:   scfg,
		Queries: map[string]string{"q1": q1SQL, "q6": q6SQL, "q12": q12SQL},
	})

	if smoke {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// ReadHeaderTimeout bounds how long a client may take to send its
	// request headers, so slow or idle connections cannot pin the server.
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	if !smoke {
		fmt.Printf("resident query service on http://%s (POST /query, /invalidate; GET /session, /stats)\n", ln.Addr())
		return hs.Serve(ln)
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if err := runSmoke("http://" + ln.Addr().String()); err != nil {
		return err
	}
	hs.Close()
	<-errc
	fmt.Println("smoke test passed")
	return nil
}

// runSmoke drives the CI smoke sequence against a live service: a fresh
// query, a repeat that must hit the result cache, a second query shape, an
// invalidation, and the session statistics.
func runSmoke(base string) error {
	q6a, err := postQuery(base, service.QueryRequest{Name: "q6"})
	if err != nil {
		return fmt.Errorf("q6: %w", err)
	}
	if len(q6a.Rows) != 1 || q6a.Profile.CacheHit || q6a.Profile.Workers == 0 {
		return fmt.Errorf("q6 first run: rows=%d profile=%+v", len(q6a.Rows), q6a.Profile)
	}
	if q6a.QaaS == nil {
		return fmt.Errorf("q6 response missing QaaS comparison")
	}
	fmt.Printf("q6: revenue=%v  %.0fms  $%.6f (athena $%.4f, bigquery $%.4f)\n",
		q6a.Rows[0][0], float64(q6a.Profile.DurationNs)/1e6, q6a.Profile.BilledUSD,
		q6a.QaaS.AthenaUSD, q6a.QaaS.BigQueryUSD)

	q6b, err := postQuery(base, service.QueryRequest{Name: "q6"})
	if err != nil {
		return fmt.Errorf("q6 repeat: %w", err)
	}
	if !q6b.Profile.CacheHit {
		return fmt.Errorf("q6 repeat missed the result cache")
	}
	if fmt.Sprint(q6b.Rows) != fmt.Sprint(q6a.Rows) {
		return fmt.Errorf("cached q6 rows diverge")
	}
	fmt.Println("q6 repeat: served from result cache")

	q12, err := postQuery(base, service.QueryRequest{Name: "q12"})
	if err != nil {
		return fmt.Errorf("q12: %w", err)
	}
	if len(q12.Rows) == 0 {
		return fmt.Errorf("q12 returned no rows")
	}
	fmt.Printf("q12: %d groups, %d workers over %d stages\n",
		len(q12.Rows), q12.Profile.Workers, q12.Profile.Stages)

	resp, err := http.Post(base+"/invalidate", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/invalidate: %d", resp.StatusCode)
	}

	sresp, err := http.Get(base + "/session")
	if err != nil {
		return err
	}
	defer sresp.Body.Close()
	var sj service.SessionJSON
	if err := json.NewDecoder(sresp.Body).Decode(&sj); err != nil {
		return err
	}
	if sj.Queries != 3 || sj.CacheHits != 1 {
		return fmt.Errorf("session stats = %+v, want 3 queries / 1 cache hit", sj)
	}
	fmt.Printf("session: %d queries, %d/%d cache hits/misses, admission peak %d/%d\n",
		sj.Queries, sj.CacheHits, sj.CacheMisses, sj.Peak, sj.Capacity)

	// Two concurrent requests on the warm session: under -mode des the
	// runner batches them into one interleaved virtual-time run, under
	// -mode local they share the fleet under the admission cap. Either
	// way the rows must agree and each response must carry a profile.
	type cres struct {
		r   *service.QueryResponse
		err error
	}
	ch := make(chan cres, 2)
	for i := 0; i < 2; i++ {
		go func() {
			r, err := postQuery(base, service.QueryRequest{Name: "q1"})
			ch <- cres{r, err}
		}()
	}
	ca, cb := <-ch, <-ch
	if ca.err != nil {
		return fmt.Errorf("concurrent q1: %w", ca.err)
	}
	if cb.err != nil {
		return fmt.Errorf("concurrent q1: %w", cb.err)
	}
	if len(ca.r.Rows) == 0 || fmt.Sprint(ca.r.Rows) != fmt.Sprint(cb.r.Rows) {
		return fmt.Errorf("concurrent q1 rows diverge: %d vs %d rows", len(ca.r.Rows), len(cb.r.Rows))
	}
	if ca.r.Profile.QueryID == "" || cb.r.Profile.QueryID == "" {
		return fmt.Errorf("concurrent q1 response missing profile query ID")
	}
	fmt.Printf("concurrent q1 x2: %d rows each, identical\n", len(ca.r.Rows))
	return nil
}

func postQuery(base string, req service.QueryRequest) (*service.QueryResponse, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var qr service.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return nil, err
	}
	return &qr, nil
}
