// Command lambada runs SQL queries on a simulated serverless deployment:
// it generates TPC-H LINEITEM data, uploads it to simulated S3 as lpq files,
// installs the worker function, executes the query on the fleet, and prints
// the result with a latency and cost report.
//
// Usage:
//
//	lambada -sf 0.01 -files 16 -query q1
//	lambada -query "SELECT COUNT(*) AS n FROM lineitem" -mode des
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/driver"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/qaas"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
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

// joinSQL is the canonical broadcast-join shape: LINEITEM (big, on S3)
// INNER JOIN SUPPLIER (small, shipped from the driver), revenue per nation.
const joinSQL = `
SELECT s_nationkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS n
FROM lineitem INNER JOIN supplier ON lineitem.l_suppkey = supplier.s_suppkey
GROUP BY s_nationkey
ORDER BY s_nationkey`

// q12SQL is the TPC-H Query 12-shaped two-large-sides join: LINEITEM
// INNER JOIN ORDERS, late lineitems per order priority. With -exchange the
// stage planner shuffles both sides through S3 (neither fits a broadcast
// at scale); without it ORDERS is broadcast like any small side.
const q12SQL = `
SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS total
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE '1995-01-01' AND l_receiptdate < DATE '1996-01-01'
  AND l_commitdate < l_receiptdate
GROUP BY o_orderpriority
ORDER BY o_orderpriority`

func main() {
	var (
		sf       = flag.Float64("sf", 0.005, "TPC-H scale factor of the generated LINEITEM data")
		files    = flag.Int("files", 8, "number of lpq files the table is stored as")
		query    = flag.String("query", "q1", "q1, q6, join, q12 (two-large-sides join), or a SQL string over lineitem, supplier, orders")
		memory   = flag.Int("m", 1792, "worker memory in MiB")
		fPerW    = flag.Int("f", 1, "files per worker")
		tree     = flag.Bool("tree", true, "use the two-level invocation tree")
		gz       = flag.Bool("gzip", true, "GZIP-compress column chunks")
		mode     = flag.String("mode", "local", "local (goroutine workers) or des (virtual-time simulation)")
		seed     = flag.Int64("seed", 42, "data generation seed")
		explain  = flag.Bool("v", false, "print per-worker processing times")
		useXchg  = flag.Bool("exchange", false, "run through the stage planner: joins shuffle through the serverless exchange when both sides are large, grouped aggregations repartition on their group keys")
		parts    = flag.Int("partitions", 0, "exchange boundary fan-in (workers per join/final-merge stage, with -exchange); 0 = autotune from footer row counts")
		bcast    = flag.Int64("broadcast-limit", 0, "build sides up to this many rows broadcast instead of shuffling (0 = default, negative = always shuffle; with -exchange)")
		pipe     = flag.Bool("pipelined", true, "launch consumer stages before their producers seal (with -exchange); false = wave-gated launch")
		spec     = flag.Bool("speculate", false, "re-invoke stragglers as backup attempts once a quorum reported (single-scope and staged runs)")
		stgWait  = flag.Duration("max-stage-wait", time.Minute, "no-progress liveness cap: a runnable stage with no worker response for this long (window restarts per response) has its missing workers re-invoked as the next attempt (with -exchange -speculate; 0 disables)")
		xlevels  = flag.Int("exchange-levels", 0, "force every stage boundary's round count: 1 = single-round, 2 = multi-level (intermediate regroup round); 0 = resolve per boundary from the analytic request model (with -exchange)")
		xcomb    = flag.Bool("exchange-combining", true, "write-combine boundary publishes: one combined object per sender with part offsets in the name (with -exchange)")
		maxParts = flag.Int("max-partitions", 0, "cap the autotuned boundary fan-in (0 = stageplan default; with -exchange -partitions 0)")
		fplan    = flag.String("fault-plan", "", "JSON fault plan file injected into the simulated substrate (with -mode des); see internal/awssim/faults")
		fseed    = flag.Int64("fault-seed", 0, "override the fault plan's seed (0 = keep the plan's own; with -fault-plan)")
		profile  = flag.Bool("profile", false, "EXPLAIN ANALYZE: record a trace and print the per-stage profile and critical path")
		traceOut = flag.String("trace-out", "", "write the query's Chrome trace-event JSON to this file (implies tracing; open in Perfetto or chrome://tracing)")
	)
	flag.Parse()

	sql := *query
	switch strings.ToLower(sql) {
	case "q1":
		sql = q1SQL
	case "q6":
		sql = q6SQL
	case "join":
		sql = joinSQL
	case "q12":
		sql = q12SQL
	}
	plan, perr := sqlfe.Parse(sql)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "lambada:", perr)
		os.Exit(2)
	}
	// Tables beyond lineitem (supplier, orders) are generated alongside it:
	// without -exchange they broadcast from the driver; with -exchange they
	// upload to S3 and the stage planner picks broadcast or shuffle per
	// join from the footer row counts.
	tables := planTables(plan, nil)
	if !tables["lineitem"] {
		fmt.Fprintln(os.Stderr, "lambada: query must scan the lineitem table")
		os.Exit(2)
	}
	for t := range tables {
		if t != "lineitem" && t != "supplier" && t != "orders" {
			fmt.Fprintf(os.Stderr, "lambada: unknown table %q (have lineitem, supplier, orders)\n", t)
			os.Exit(2)
		}
	}

	comp := lpq.None
	if *gz {
		comp = lpq.Gzip
	}
	cfg := driver.DefaultConfig()
	cfg.WorkerMemoryMiB = *memory
	cfg.FilesPerWorker = *fPerW
	cfg.TreeInvoke = *tree
	if *spec {
		cfg.Speculate = driver.DefaultSpeculateConfig()
	}

	run := func(dep *driver.Deployment, env simenv.Env) error {
		if *profile || *traceOut != "" {
			dep.EnableTracing(obs.New())
		}
		d := driver.New(dep, env, cfg)
		if err := d.Install(); err != nil {
			return err
		}
		fmt.Printf("generating LINEITEM at SF %g (%d rows)...\n", *sf, tpch.Gen{SF: *sf}.NumRows())
		g := tpch.Gen{SF: *sf, Seed: *seed}
		data := g.Generate()
		refs, err := d.UploadTable("tpch", "lineitem", data, *files, lpq.WriterOptions{RowGroupRows: 65536, Compression: comp})
		if err != nil {
			return err
		}
		aux := map[string]*columnar.Chunk{}
		if tables["supplier"] {
			aux["supplier"] = g.Supplier()
		}
		if tables["orders"] {
			aux["orders"] = g.OrdersFor(data)
		}
		var out *columnar.Chunk
		var rep *driver.Report
		switch {
		case *useXchg:
			// Staged execution: every table lives on S3; the planner picks
			// broadcast or shuffle per join from the footer row counts.
			tf := driver.TableFiles{"lineitem": refs}
			for name, chunk := range aux {
				nf := *files / 2
				if nf < 1 {
					nf = 1
				}
				fmt.Printf("uploading %s (%d rows, %d files)\n", strings.ToUpper(name), chunk.NumRows(), nf)
				tf[name], err = d.UploadTable("tpch", name, chunk, nf, lpq.WriterOptions{RowGroupRows: 65536, Compression: comp})
				if err != nil {
					return err
				}
			}
			fmt.Printf("uploaded %s total\n", byteSize(dep.S3.TotalBytes("tpch")))
			scfg := driver.DefaultStageConfig()
			scfg.Partitions = *parts
			scfg.BroadcastRowLimit = *bcast
			scfg.Pipelined = *pipe
			scfg.MaxStageWait = *stgWait
			scfg.ExchangeLevels = *xlevels
			scfg.Exchange.WriteCombining = *xcomb
			scfg.MaxAutoPartitions = *maxParts
			out, rep, err = d.RunPlanStaged(plan, tf, scfg)
		default:
			fmt.Printf("uploaded %d files (%s total)\n", len(refs), byteSize(dep.S3.TotalBytes("tpch")))
			for name, chunk := range aux {
				fmt.Printf("broadcasting %s (%d rows) with every worker payload\n", strings.ToUpper(name), chunk.NumRows())
			}
			out, rep, err = d.RunPlan(plan, "lineitem", refs, aux)
		}
		if err != nil {
			return err
		}
		printChunk(out)
		fmt.Println()
		driver.WriteReport(os.Stdout, rep, driver.RenderOptions{Verbose: *explain, Profile: *profile})
		if spec, ok := qaas.SpecFor(*query); ok {
			fmt.Print(qaas.Compare(spec, *sf, pricing.USD(rep.TotalCost), rep.Duration))
		}
		if *traceOut != "" {
			f, ferr := os.Create(*traceOut)
			if ferr != nil {
				return ferr
			}
			if ferr := obs.ExportChromeTrace(f, rep.Trace.Spans()); ferr != nil {
				f.Close()
				return ferr
			}
			if ferr := f.Close(); ferr != nil {
				return ferr
			}
			fmt.Printf("trace written to %s\n", *traceOut)
		}
		return nil
	}

	var chaosPlan faults.Plan
	if *fplan != "" {
		if *mode != "des" {
			fmt.Fprintln(os.Stderr, "lambada: -fault-plan requires -mode des (faults replay in virtual time)")
			os.Exit(2)
		}
		raw, rerr := os.ReadFile(*fplan)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "lambada:", rerr)
			os.Exit(2)
		}
		chaosPlan, rerr = faults.ParsePlan(raw)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "lambada: %s: %v\n", *fplan, rerr)
			os.Exit(2)
		}
		if *fseed != 0 {
			chaosPlan.Seed = *fseed
		}
	}

	var err error
	if *mode == "des" {
		k := simclock.New()
		k.Go("driver", func(p *simclock.Proc) {
			dep := driver.NewSimulated(k, *seed)
			if *fplan != "" {
				dep = driver.NewChaos(k, *seed, chaosPlan)
			}
			if e := run(dep, p); e != nil {
				err = e
			}
		})
		k.Run()
	} else {
		err = run(driver.NewLocal(), simenv.NewImmediate())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lambada:", err)
		os.Exit(1)
	}
}

// planTables collects every table the plan scans (join build sides
// included).
func planTables(p engine.Plan, dst map[string]bool) map[string]bool {
	if dst == nil {
		dst = map[string]bool{}
	}
	engine.VisitScans(p, func(s *engine.ScanPlan) { dst[s.Table] = true })
	return dst
}

func printChunk(c *columnar.Chunk) {
	for _, f := range c.Schema.Fields {
		fmt.Printf("%-18s", f.Name)
	}
	fmt.Println()
	for i := 0; i < c.NumRows(); i++ {
		for j, col := range c.Columns {
			switch c.Schema.Fields[j].Type {
			case columnar.Int64:
				fmt.Printf("%-18d", col.Int64s[i])
			case columnar.Float64:
				fmt.Printf("%-18.4f", col.Float64s[i])
			default:
				fmt.Printf("%-18v", col.Bools[i])
			}
		}
		fmt.Println()
	}
}

func byteSize(n int64) string {
	switch {
	case n > 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n > 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
