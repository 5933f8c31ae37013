package s3fs

import (
	"fmt"
	"testing"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
)

// BenchmarkReadRanges measures the coalesced multi-range read a page-
// granular scan issues: 64 column pages of 4 KiB, 1 KiB apart, over a
// 1 MiB object, with the default coalescing gap and with coalescing off.
// gets/op is the billed request count the gap saves.
func BenchmarkReadRanges(b *testing.B) {
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("b")
	if err := svc.Put(simenv.NewImmediate(), "b", "k", make([]byte, 1<<20)); err != nil {
		b.Fatal(err)
	}
	ranges := make([]Range, 64)
	for i := range ranges {
		ranges[i] = Range{Off: int64(i) * 5 << 10, Len: 4 << 10}
	}
	for _, gap := range []int64{DefaultCoalesceGap, -1} {
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) {
			f := NewFile(s3.NewClient(svc, simenv.NewImmediate()), "b", "k", 1<<20)
			b.SetBytes(64 * 4 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ReadRanges(ranges, gap); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.Requests())/float64(b.N), "gets/op")
		})
	}
}
