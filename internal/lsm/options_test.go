package lsm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// panicOf runs f and returns what it panicked with, as text ("" if it
// returned).
func panicOf(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// TestOpenRejectsInvalidOptions: Open invents no value. Zeroing any field
// the engine cannot run without panics with the field's name, and
// ValueThreshold, where zero means off, opens.
func TestOpenRejectsInvalidOptions(t *testing.T) {
	open := func(opt Options) {
		clk := vclock.New()
		Open(clk, fs.New(&testDev{pageSize: 4096, pages: 1 << 10}), opt).Close()
		clk.Wait()
	}
	for _, field := range []string{
		"MemtableSize", "MaxImmutableMemtables", "L0CompactionTrigger",
		"L0SlowdownTrigger", "L0StopTrigger", "PendingCompactionSlowdownBytes",
		"PendingCompactionStopBytes", "BaseLevelBytes", "LevelMultiplier",
		"MaxLevels", "MaxFileSize", "CompactionThreads", "DelayedWriteBytesPerSec",
		"SlowdownSleep", "BlockSize", "MaxWriteGroupBytes",
		"WALChunkSize", "WALQueueDepth", "CPU",
	} {
		opt := smallOpts()
		reflect.ValueOf(&opt).Elem().FieldByName(field).SetZero()
		if msg := panicOf(func() { open(opt) }); !strings.Contains(msg, field) {
			t.Errorf("Open with zero %s panicked with %q, want the field's name", field, msg)
		}
	}
	opt := smallOpts()
	opt.ValueThreshold = 0
	if msg := panicOf(func() { open(opt) }); msg != "" {
		t.Errorf("Open with zero ValueThreshold panicked: %s", msg)
	}
}
