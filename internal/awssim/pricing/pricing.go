// Package pricing encodes the AWS price model the Lambada paper evaluates
// against (us-east-1, late 2019) and provides a CostMeter that the service
// simulators charge usage to. All figures that report monetary cost (1, 7,
// 9, 10, 12) derive from these tables.
package pricing

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// USD is an amount of money in US dollars.
type USD float64

// String formats the amount with adaptive precision (¢ for small amounts).
func (u USD) String() string {
	switch {
	case u < 0.01:
		return fmt.Sprintf("%.4f¢", float64(u)*100)
	case u < 1:
		return fmt.Sprintf("%.2f¢", float64(u)*100)
	default:
		return fmt.Sprintf("$%.2f", float64(u))
	}
}

// Price constants (us-east-1, as quoted in the paper).
const (
	// LambdaGBSecond is the AWS Lambda duration price per GiB-second.
	// A 2 GiB worker costs $3.3e-5 per second (§4.4.4).
	LambdaGBSecond USD = 1.66667e-5
	// LambdaPerRequest is the AWS Lambda invocation price.
	LambdaPerRequest USD = 0.20 / 1e6

	// S3Read is the price of one GET request ($0.4 per million, §4.3.1).
	S3Read USD = 0.4 / 1e6
	// S3Write is the price of one PUT request ($5 per million).
	S3Write USD = 5.0 / 1e6
	// S3List is the price of one LIST request (charged like writes, §4.4.3).
	S3List USD = 5.0 / 1e6

	// SQSPerRequest is the price of one SQS request.
	SQSPerRequest USD = 0.40 / 1e6

	// DynamoRead and DynamoWrite are on-demand request prices.
	DynamoRead  USD = 0.25 / 1e6
	DynamoWrite USD = 1.25 / 1e6

	// QaaSPerTiB is the bytes-scanned price of Amazon Athena and Google
	// BigQuery ("1 TiB of input costs $5 in both systems", §5.4.1).
	QaaSPerTiB USD = 5.0
)

// VMType describes an EC2 instance type used in the Figure 1 simulations.
type VMType struct {
	Name       string
	HourlyUSD  USD
	VCPUs      int
	MemoryGiB  float64
	NetworkGbs float64 // network bandwidth in Gbit/s
	// ScanBps is the effective single-instance scan bandwidth in bytes/s
	// for the storage tier this instance represents in Figure 1b.
	ScanBps float64
}

// Instance types from the paper's simulations (footnotes 1 and 3).
var (
	// C5NXLarge is the job-scoped worker VM of Figure 1a.
	C5NXLarge = VMType{Name: "c5n.xlarge", HourlyUSD: 0.216, VCPUs: 4, MemoryGiB: 10.5, NetworkGbs: 25}
	// R512XLarge reads pre-loaded data from DRAM (Figure 1b).
	R512XLarge = VMType{Name: "r5.12xlarge", HourlyUSD: 3.024, VCPUs: 48, MemoryGiB: 384, NetworkGbs: 10, ScanBps: 40e9}
	// I316XLarge reads from local NVMe (Figure 1b).
	I316XLarge = VMType{Name: "i3.16xlarge", HourlyUSD: 4.992, VCPUs: 64, MemoryGiB: 488, NetworkGbs: 25, ScanBps: 16e9}
	// C5N18XLarge scans directly from S3 (Figure 1b).
	C5N18XLarge = VMType{Name: "c5n.18xlarge", HourlyUSD: 3.888, VCPUs: 72, MemoryGiB: 192, NetworkGbs: 100, ScanBps: 9e9}
)

// LambdaDuration returns the duration cost of a function with memoryMiB of
// memory running for d. AWS bills in 1 ms increments; we bill exact time,
// which is indistinguishable at the scales reported.
func LambdaDuration(memoryMiB int, d time.Duration) USD {
	gib := float64(memoryMiB) / 1024.0
	return USD(gib*d.Seconds()) * LambdaGBSecond
}

// QaaSScan returns the QaaS price of scanning n bytes.
func QaaSScan(n int64) USD {
	return QaaSPerTiB * USD(float64(n)/(1<<40))
}

// VMCost returns the cost of running count instances of t for d, billed
// per-second (AWS Linux on-demand billing).
func VMCost(t VMType, count int, d time.Duration) USD {
	return t.HourlyUSD * USD(float64(count)*d.Hours())
}

// CostMeter accumulates usage-based cost by category. It is safe for
// concurrent use (the functional layer exercises services from many real
// goroutines).
type CostMeter struct {
	mu      sync.Mutex
	byLabel map[string]USD
	counts  map[string]int64
}

// NewCostMeter returns an empty meter.
func NewCostMeter() *CostMeter {
	return &CostMeter{byLabel: make(map[string]USD), counts: make(map[string]int64)}
}

// Charge adds amount under the given label and counts one event.
func (m *CostMeter) Charge(label string, amount USD) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.byLabel[label] += amount
	m.counts[label]++
	m.mu.Unlock()
}

// ChargeN adds amount under label, counting n events.
func (m *CostMeter) ChargeN(label string, n int64, amount USD) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.byLabel[label] += amount
	m.counts[label] += n
	m.mu.Unlock()
}

// Total returns the sum over all labels, added in sorted label order:
// floating-point addition is not associative, and map order would let
// equal meters total differently in the last bit.
func (m *CostMeter) Total() USD {
	m.mu.Lock()
	defer m.mu.Unlock()
	labels := make([]string, 0, len(m.byLabel))
	for l := range m.byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var t USD
	for _, l := range labels {
		t += m.byLabel[l]
	}
	return t
}

// Get returns the accumulated amount for one label.
func (m *CostMeter) Get(label string) USD {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byLabel[label]
}

// Count returns the number of events charged under label.
func (m *CostMeter) Count(label string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[label]
}

// Labels returns all labels in sorted order.
func (m *CostMeter) Labels() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.byLabel))
	for l := range m.byLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Reset clears the meter.
func (m *CostMeter) Reset() {
	m.mu.Lock()
	m.byLabel = make(map[string]USD)
	m.counts = make(map[string]int64)
	m.mu.Unlock()
}

// Breakdown returns a formatted multi-line cost report.
func (m *CostMeter) Breakdown() string {
	s := ""
	for _, l := range m.Labels() {
		s += fmt.Sprintf("%-24s %12s  (%d events)\n", l, m.Get(l), m.Count(l))
	}
	s += fmt.Sprintf("%-24s %12s\n", "TOTAL", m.Total())
	return s
}

// Standard meter labels used by the service simulators.
const (
	LabelLambdaDuration = "lambda.duration"
	LabelLambdaRequests = "lambda.requests"
	LabelS3Read         = "s3.read"
	LabelS3Write        = "s3.write"
	LabelS3List         = "s3.list"
	LabelSQS            = "sqs.requests"
	LabelDynamoRead     = "dynamo.read"
	LabelDynamoWrite    = "dynamo.write"
)
