package pricing

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLambdaDurationMatchesPaperRate(t *testing.T) {
	// §4.4.4: a 2 GiB worker costs $3.3e-5 per second.
	got := LambdaDuration(2048, time.Second)
	if math.Abs(float64(got)-3.33334e-5) > 1e-9 {
		t.Errorf("2GiB-second = %v, want ~3.3e-5", float64(got))
	}
}

func TestS3RequestPrices(t *testing.T) {
	// §4.3.1: one million read requests cost $0.4; writes and lists $5.
	if math.Abs(float64(S3Read)*1e6-0.4) > 1e-9 {
		t.Errorf("1M reads = %v, want 0.4", float64(S3Read)*1e6)
	}
	if math.Abs(float64(S3Write)*1e6-5.0) > 1e-9 {
		t.Errorf("1M writes = %v, want 5", float64(S3Write)*1e6)
	}
	if S3List != S3Write {
		t.Error("lists must be charged like writes (§4.4.3)")
	}
}

func TestQaaSScan(t *testing.T) {
	if got := QaaSScan(1 << 40); got != 5.0 {
		t.Errorf("1 TiB scan = %v, want $5", got)
	}
	if got := QaaSScan(0); got != 0 {
		t.Errorf("0 bytes = %v", got)
	}
}

func TestVMCost(t *testing.T) {
	got := VMCost(C5NXLarge, 10, 30*time.Minute)
	want := 0.216 * 10 * 0.5
	if math.Abs(float64(got)-want) > 1e-9 {
		t.Errorf("10 c5n.xlarge for 30m = %v, want %v", got, want)
	}
}

func TestUSDString(t *testing.T) {
	cases := []struct {
		v    USD
		want string
	}{
		{0.001, "0.1000¢"},
		{0.05, "5.00¢"},
		{3.5, "$3.50"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.v), got, c.want)
		}
	}
}

func TestCostMeterAccumulates(t *testing.T) {
	m := NewCostMeter()
	m.Charge(LabelS3Read, S3Read)
	m.Charge(LabelS3Read, S3Read)
	m.ChargeN(LabelS3Write, 10, 10*S3Write)
	if got := m.Count(LabelS3Read); got != 2 {
		t.Errorf("read count = %d", got)
	}
	if got := m.Count(LabelS3Write); got != 10 {
		t.Errorf("write count = %d", got)
	}
	want := 2*S3Read + 10*S3Write
	if math.Abs(float64(m.Total()-want)) > 1e-12 {
		t.Errorf("total = %v, want %v", m.Total(), want)
	}
	if !strings.Contains(m.Breakdown(), "TOTAL") {
		t.Error("breakdown missing TOTAL")
	}
	m.Reset()
	if m.Total() != 0 {
		t.Error("reset did not clear")
	}
}

func TestCostMeterConcurrent(t *testing.T) {
	m := NewCostMeter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Charge("x", 1)
			}
		}()
	}
	wg.Wait()
	if m.Count("x") != 8000 {
		t.Errorf("count = %d, want 8000", m.Count("x"))
	}
}

func TestNilMeterIsNoOp(t *testing.T) {
	var m *CostMeter
	m.Charge("x", 1) // must not panic
	m.ChargeN("x", 2, 1)
}

func TestLabelsSorted(t *testing.T) {
	m := NewCostMeter()
	m.Charge("z", 1)
	m.Charge("a", 1)
	m.Charge("m", 1)
	ls := m.Labels()
	if len(ls) != 3 || ls[0] != "a" || ls[1] != "m" || ls[2] != "z" {
		t.Errorf("labels = %v", ls)
	}
}

// TestTotalOrderIndependent: the labels below sum to 1 in some orders and
// to a different value in others (1 vanishes next to 1e16), so a total
// taken in map order would differ from call to call. Total must add in
// sorted label order every time.
func TestTotalOrderIndependent(t *testing.T) {
	m := NewCostMeter()
	vals := map[string]USD{"a": 1e16, "b": 1, "c": -1e16, "d": 1, "e": 0.5, "f": 1e16}
	for l, v := range vals {
		m.Charge(l, v)
	}
	var want USD
	for _, l := range m.Labels() {
		want += vals[l]
	}
	for i := 0; i < 200; i++ {
		if got := m.Total(); got != want {
			t.Fatalf("call %d: Total = %v, want %v (sorted-order sum)", i, float64(got), float64(want))
		}
	}
}
