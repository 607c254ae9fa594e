package metrics_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"kvaccel/internal/core"
	"kvaccel/internal/devlsm"
	"kvaccel/internal/hotring"
	"kvaccel/internal/lsm"
	"kvaccel/internal/metrics"
)

// The add* functions below are the field lists Sum replaces, written out
// by hand: a field added to one of these types and not here makes the
// property tests fail, so the list must grow with the type.

func addLSM(a, b lsm.Stats) lsm.Stats {
	a.Puts += b.Puts
	a.Gets += b.Gets
	a.Deletes += b.Deletes
	a.ReadsMemtable += b.ReadsMemtable
	a.ReadsImmutable += b.ReadsImmutable
	for i := range a.ReadsLevel {
		a.ReadsLevel[i] += b.ReadsLevel[i]
	}
	a.ReadMisses += b.ReadMisses
	a.BloomConsults += b.BloomConsults
	a.BloomNegatives += b.BloomNegatives
	a.BloomFalsePositives += b.BloomFalsePositives
	a.VLogDerefs += b.VLogDerefs
	a.BlockCacheEvictions += b.BlockCacheEvictions
	a.VLogReadCacheHits += b.VLogReadCacheHits
	a.VLogReadCacheMisses += b.VLogReadCacheMisses
	a.Slowdowns += b.Slowdowns
	for i := range a.StallEvents {
		a.StallEvents[i] += b.StallEvents[i]
	}
	a.StallTime += b.StallTime
	a.GroupCommits += b.GroupCommits
	a.GroupedRecords += b.GroupedRecords
	a.WALAppends += b.WALAppends
	a.WouldStalls += b.WouldStalls
	a.WALErrors += b.WALErrors
	a.PipelinedAppends += b.PipelinedAppends
	a.GroupLingerMicros += b.GroupLingerMicros
	a.Flushes += b.Flushes
	a.FlushBytes += b.FlushBytes
	a.Compactions += b.Compactions
	a.CompactionReadBytes += b.CompactionReadBytes
	a.CompactionWriteBytes += b.CompactionWriteBytes
	a.WALBytesWritten += b.WALBytesWritten
	a.UserBytes += b.UserBytes
	a.VLogBytes += b.VLogBytes
	a.VLogSegments += b.VLogSegments
	a.VLogDiscardBytes += b.VLogDiscardBytes
	a.VLogGCRewrites += b.VLogGCRewrites
	return a
}

func addHotring(a, b hotring.Stats) hotring.Stats {
	a.FrontCacheHits += b.FrontCacheHits
	a.FrontCacheMisses += b.FrontCacheMisses
	a.FrontCacheFills += b.FrontCacheFills
	a.FrontCacheRejected += b.FrontCacheRejected
	a.FrontCacheDeclined += b.FrontCacheDeclined
	a.FrontCacheUpdates += b.FrontCacheUpdates
	a.FrontCacheInvalidations += b.FrontCacheInvalidations
	a.FrontCacheEvictions += b.FrontCacheEvictions
	a.FrontCacheHeadMoves += b.FrontCacheHeadMoves
	a.FrontCacheUsed += b.FrontCacheUsed
	a.FrontCacheEntries += b.FrontCacheEntries
	return a
}

func addCore(a, b core.Stats) core.Stats {
	a.NormalPuts += b.NormalPuts
	a.RedirectedPuts += b.RedirectedPuts
	a.WouldStallRedirects += b.WouldStallRedirects
	a.Gets += b.Gets
	a.MainGets += b.MainGets
	a.DevGets += b.DevGets
	a.DevServed += b.DevServed
	a.Rollbacks += b.Rollbacks
	a.RollbackPairs += b.RollbackPairs
	a.RollbackTime += b.RollbackTime
	a.Recoveries += b.Recoveries
	a.RecoveryTime += b.RecoveryTime
	a.DevErrors += b.DevErrors
	a.DevRetries += b.DevRetries
	a.DevFailed += b.DevFailed
	a.Stats = addHotring(a.Stats, b.Stats)
	return a
}

func addDevLSM(a, b devlsm.Stats) devlsm.Stats {
	a.Puts += b.Puts
	a.Gets += b.Gets
	a.Flushes += b.Flushes
	a.Compactions += b.Compactions
	a.Resets += b.Resets
	a.Scans += b.Scans
	a.BytesIn += b.BytesIn
	a.BufferWaits += b.BufferWaits
	a.BufferWaitNS += b.BufferWaitNS
	a.FlushNS += b.FlushNS
	return a
}

// quickConfig seeds testing/quick, which fills every field of a struct
// argument — arrays, durations and embedded structs included — with a
// random value.
func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
}

func TestSumLSMStats(t *testing.T) {
	if err := quick.Check(func(a, b lsm.Stats) bool {
		want := addLSM(a, b)
		return metrics.Sum(a, b) == want && a.Add(b) == want
	}, quickConfig()); err != nil {
		t.Error(err)
	}
}

func TestSumCoreStats(t *testing.T) {
	if err := quick.Check(func(a, b core.Stats) bool {
		want := addCore(a, b)
		return metrics.Sum(a, b) == want && a.Add(b) == want
	}, quickConfig()); err != nil {
		t.Error(err)
	}
}

func TestSumDevLSMStats(t *testing.T) {
	if err := quick.Check(func(a, b devlsm.Stats) bool {
		return metrics.Sum(a, b) == addDevLSM(a, b)
	}, quickConfig()); err != nil {
		t.Error(err)
	}
}

func TestSumHotringStats(t *testing.T) {
	if err := quick.Check(func(a, b hotring.Stats) bool {
		return metrics.Sum(a, b) == addHotring(a, b)
	}, quickConfig()); err != nil {
		t.Error(err)
	}
}

// TestSumKinds covers the kinds the stats types do not use yet: unsigned
// and float fields, and a nested struct in an array.
func TestSumKinds(t *testing.T) {
	type pair struct {
		N uint8
		F float64
	}
	type mixed struct {
		U     uint32
		Pairs [2]pair
	}
	a := mixed{U: 1, Pairs: [2]pair{{N: 250, F: 0.5}, {N: 1, F: 2}}}
	b := mixed{U: 2, Pairs: [2]pair{{N: 10, F: 0.25}, {N: 2, F: -1}}}
	want := mixed{U: 3, Pairs: [2]pair{{N: 4, F: 0.75}, {N: 3, F: 1}}}
	if got := metrics.Sum(a, b); got != want {
		t.Errorf("Sum = %+v, want %+v", got, want)
	}
}

// TestSumPanicsNamingTheField: a field with no sum — slice, map, pointer,
// string — panics, and the message names it.
func TestSumPanicsNamingTheField(t *testing.T) {
	type withSlice struct {
		N   int64
		Bad []int64
	}
	type withMap struct{ Bad map[string]int64 }
	type withPointer struct{ Bad *int64 }
	type withString struct {
		Inner struct {
			N   int64
			Bad string
		}
	}
	wantPanic(t, "withSlice.Bad (slice)", withSlice{})
	wantPanic(t, "withMap.Bad (map)", withMap{})
	wantPanic(t, "withPointer.Bad (ptr)", withPointer{})
	wantPanic(t, "withString.Inner.Bad (string)", withString{})
}

func wantPanic[T any](t *testing.T, field string, v T) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, field) {
			t.Errorf("Sum of %T panicked with %q, want it to name %s", v, msg, field)
		}
	}()
	metrics.Sum(v, v)
}
