package main

import (
	"io"
	"testing"
	"time"
)

// TestEveryShardTakesPuts runs four shards for one virtual second: hash
// routing spreads every writer's keys, so each shard takes puts.
func TestEveryShardTakesPuts(t *testing.T) {
	st := run(io.Discard, 4, time.Second)
	for i, s := range st.PerShard {
		if s.KVAccel.NormalPuts+s.KVAccel.RedirectedPuts == 0 {
			t.Errorf("shard %d took no puts", i)
		}
	}
}
