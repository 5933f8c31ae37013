package scan

import (
	"fmt"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// benchFiles uploads SF 0.02 lineitem as 8 gzip lpq files.
func benchFiles(b *testing.B) (*s3.Service, []FileRef, int64) {
	b.Helper()
	env := simenv.NewImmediate()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("data")
	data := tpch.Gen{SF: 0.02, Seed: 9}.Generate()
	var refs []FileRef
	for i, part := range tpch.SplitFiles(data, 8) {
		raw, err := lpq.WriteFile(tpch.Schema(), lpq.WriterOptions{RowGroupRows: 4096, Compression: lpq.Gzip}, part)
		if err != nil {
			b.Fatal(err)
		}
		key := fmt.Sprintf("lineitem/part-%03d.lpq", i)
		if err := svc.Put(env, "data", key, raw); err != nil {
			b.Fatal(err)
		}
		refs = append(refs, FileRef{Bucket: "data", Key: key})
	}
	return svc, refs, data.ByteSize()
}

// BenchmarkParallelScan compares a serial multi-file scan against the
// level-5 worker pool (chunk order is identical either way).
func BenchmarkParallelScan(b *testing.B) {
	svc, refs, bytes := benchFiles(b)
	for _, pf := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("files=%d", pf), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.ParallelFiles = pf
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := New(s3.NewClient(svc, simenv.NewImmediate()), cfg, refs...)
				rows := 0
				err := src.Scan(nil, nil, func(c *columnar.Chunk) error {
					rows += c.NumRows()
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if rows == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkWarmOpenDES measures the driver's footer wave on the DES kernel:
// TotalRows over 32 files behind the paper's S3 GET latency (no rate
// limit: every iteration restarts virtual time at zero), every open on a
// fan-out child process. vms/op is the wave's virtual latency; ns/op is
// what simulating it costs.
func BenchmarkWarmOpenDES(b *testing.B) {
	svc := s3.New(s3.Config{GetLatency: s3.DefaultAWSConfig(nil, 1).GetLatency, Seed: 1})
	svc.MustCreateBucket("data")
	data := tpch.Gen{SF: 0.002, Seed: 9}.Generate()
	var refs []FileRef
	for i, part := range tpch.SplitFiles(data, 32) {
		raw, err := lpq.WriteFile(tpch.Schema(), lpq.WriterOptions{}, part)
		if err != nil {
			b.Fatal(err)
		}
		key := fmt.Sprintf("lineitem/part-%03d.lpq", i)
		if err := svc.Put(simenv.NewImmediate(), "data", key, raw); err != nil {
			b.Fatal(err)
		}
		refs = append(refs, FileRef{Bucket: "data", Key: key})
	}
	var virtual time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := simclock.New()
		k.Go("driver", func(p *simclock.Proc) {
			if _, err := New(s3.NewClient(svc, p), Config{}, refs...).TotalRows(); err != nil {
				b.Error(err)
			}
		})
		virtual += k.Run()
	}
	b.ReportMetric(float64(virtual)/float64(b.N)/1e6, "vms/op")
}
