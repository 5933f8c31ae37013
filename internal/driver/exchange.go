package driver

import (
	"fmt"
	"time"
)

// ExchangeConfig configures the S3 namespace of staged-query boundaries:
// the shard buckets pre-created at installation time (§4.4.1), whether
// senders write-combine their partitions, and receiver-side waiting. The
// round count and shard-bucket subset of each boundary are resolved per
// boundary by stageplan.ChooseVariant (see StageConfig.ExchangeLevels).
type ExchangeConfig struct {
	// WriteCombining writes all partitions of a sender into one object
	// whose part offsets are encoded in the name (§4.4.3).
	WriteCombining bool
	// Buckets is the shard-bucket count created at Install.
	Buckets int
	// Poll and MaxWait configure receiver-side waiting.
	Poll    time.Duration
	MaxWait time.Duration
}

// DefaultExchangeConfig write-combines over eight shard buckets.
func DefaultExchangeConfig() ExchangeConfig {
	return ExchangeConfig{
		WriteCombining: true,
		Buckets:        8,
		Poll:           50 * time.Millisecond,
		MaxWait:        10 * time.Minute,
	}
}

// exchangeBucketName names the i-th shard bucket of an installation.
func exchangeBucketName(fn string, i int) string {
	return fmt.Sprintf("%s-xshard-%d", fn, i)
}

// InstallExchange creates the shard buckets (free, done once, §4.4.1).
func (d *Session) InstallExchange(cfg ExchangeConfig) []string {
	buckets := make([]string, cfg.Buckets)
	for i := range buckets {
		buckets[i] = exchangeBucketName(d.cfg.FunctionName, i)
		d.dep.S3.MustCreateBucket(buckets[i])
	}
	return buckets
}

// InstallExchange creates the shard buckets (free, done once, §4.4.1).
func (d *Driver) InstallExchange(cfg ExchangeConfig) []string { return d.sess.InstallExchange(cfg) }
