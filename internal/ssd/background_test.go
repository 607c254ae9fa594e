package ssd

import (
	"bytes"
	"testing"

	"kvaccel/internal/fold"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// TestBackgroundTaggingThroughFS pins the whole maintenance-I/O path:
// fs.WriteFileBackground / fs.ReadExtentBackground discover the namespace's
// background capability and the commands land in the queue pair's Bg*
// counters, while foreground fs calls stay out of them.
func TestBackgroundTaggingThroughFS(t *testing.T) {
	dev, clk := newTestDev()
	ns := dev.BlockNamespace(0, 0)
	fsys := fs.New(ns)

	payload := bytes.Repeat([]byte("x"), 3*ns.PageSize())
	runOn(t, clk, func(r *vclock.Runner) {
		if err := fsys.WriteFile(r, "fg.sst", fold.Literal(payload)); err != nil {
			t.Errorf("fg write: %v", err)
		}
		if err := fsys.WriteFileBackground(r, "bg.sst", fold.Literal(payload)); err != nil {
			t.Errorf("bg write: %v", err)
		}
		// Cold reads: cap the page cache so the reads pay device commands.
		fsys.SetPageCacheBytes(int64(ns.PageSize()))
		if _, err := fsys.ReadAt(r, "fg.sst", 0, len(payload)); err != nil {
			t.Errorf("fg read: %v", err)
		}
		if _, _, err := fsys.ReadExtentBackground(r, "bg.sst", 0, len(payload)); err != nil {
			t.Errorf("bg read: %v", err)
		}
	})

	var total, bg int64
	for _, q := range dev.QueueStats() {
		total += q.Submitted
		bg += q.BgSubmitted
		if q.BgCompleted != q.BgSubmitted || q.BgOutstanding != 0 {
			t.Errorf("queue %s: bg not conserved: %+v", q.Name, q)
		}
	}
	if bg == 0 {
		t.Fatal("background fs calls produced no bg-tagged commands")
	}
	if bg >= total {
		t.Fatalf("bg=%d total=%d: foreground calls were tagged too", bg, total)
	}
}
