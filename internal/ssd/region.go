package ssd

import (
	"fmt"

	"kvaccel/internal/devlsm"
	"kvaccel/internal/encoding"
	"kvaccel/internal/ftl"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/nvme"
	"kvaccel/internal/vclock"
)

// KVRegion is a region-scoped view of the KV interface: its own Dev-LSM
// over a slice of the KV region's pages and its own NVMe queue pair,
// sharing the device's PCIe link, dispatcher, and ARM controller core
// with every other slice. The full-region view (KVRegionFull) is the
// device's KV interface; per-shard slices
// (KVRegionSlices) are the independent write domains of the sharded
// front-end — each shard submits on its own queue (multi-queue NVMe) and
// can buffer, scan, and reset without touching its neighbours' pairs.
type KVRegion struct {
	dev  *Device
	lsm  *devlsm.DevLSM
	qp   *nvme.QueuePair
	free freeList[kvCmd]
}

// KVRegionFull returns the view covering the whole KV region (the
// device's default Dev-LSM).
func (d *Device) KVRegionFull() *KVRegion { return d.full }

// KVRegionSlices partitions the KV region into n near-equal page slices,
// each backed by its own Dev-LSM instance and its own queue pair. The
// device DRAM budget — the two write buffers, DevLSM.MemtableBytes each —
// is split evenly so total controller memory matches the unsharded
// configuration.
// The slices share the single ARM core and NAND dies, preserving the
// paper's device-resource model; callers must not mix slice views with
// the full-region view on the same device. One slice is the full-region
// view itself, so a one-shard machine is the unsharded one.
func (d *Device) KVRegionSlices(n int) []*KVRegion {
	if n <= 1 {
		return []*KVRegion{d.full}
	}
	total := d.FTL.RegionPages(ftl.KVRegion)
	per := total / n
	if per < 1 {
		panic("ssd: KV region too small to slice")
	}
	cfg := d.cfg.DevLSM
	cfg.MemtableBytes /= int64(n)
	if cfg.MemtableBytes < 64<<10 {
		cfg.MemtableBytes = 64 << 10
	}
	out := make([]*KVRegion, n)
	for i := range out {
		pages := per
		if i == n-1 {
			pages = total - per*(n-1) // last slice absorbs the remainder
		}
		out[i] = &KVRegion{
			dev: d,
			lsm: devlsm.NewRegion(d.FTL, d.ARM, cfg, i*per, pages),
			qp:  d.NVMe.NewQueuePair(fmt.Sprintf("kv%d", i), 1),
		}
	}
	return out
}

// do issues c, waits for its completion and recycles it.
func (s *KVRegion) do(r *vclock.Runner, c *kvCmd) error {
	err := s.qp.Do(r, &c.Command)
	s.release(c)
	return err
}

// DevLSM exposes the slice's backing store (stats, tests).
func (s *KVRegion) DevLSM() *devlsm.DevLSM { return s.lsm }

// KVPut issues a PUT (or a redirected tombstone) over the KV interface:
// one queued command whose body DMAs header+record and runs the Dev-LSM
// insert on the controller.
func (s *KVRegion) KVPut(r *vclock.Runner, kind memtable.Kind, key, value []byte) error {
	c := s.cmd(kvPut, kvHeader+len(key)+len(value))
	c.kind, c.key, c.value = kind, key, value
	return s.do(r, c)
}

// KVPutCompound issues a compound command carrying several records (the
// buffered-I/O capability of the NVMe KV extensions [33]): one command
// header and parse amortize over each sub-command's batch. Batches larger
// than the DMA chunk split into several commands in flight together, so
// the next chunk's DMA overlaps the previous chunk's controller work.
// Entries are partitioned by key hash, which keeps every occurrence of a
// key inside one command and so preserves per-key ordering regardless of
// completion order.
func (s *KVRegion) KVPutCompound(r *vclock.Runner, entries []memtable.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	payload := 0
	for _, e := range entries {
		payload += len(e.Key) + len(e.Value) + 8
	}
	chunkBudget := s.dev.cfg.DMAChunkSize
	nChunks := (payload + chunkBudget - 1) / chunkBudget
	if nChunks <= 1 {
		return s.do(r, s.compoundCmd(entries, payload))
	}
	parts := make([][]memtable.Entry, nChunks)
	for _, e := range entries {
		i := int(encoding.FNV1a(e.Key) % uint64(nChunks))
		parts[i] = append(parts[i], e)
	}
	var inflight [maxInflight]*kvCmd
	cmds := inflight[:0]
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		sz := 0
		for _, e := range part {
			sz += len(e.Key) + len(e.Value) + 8
		}
		c := s.compoundCmd(part, sz)
		s.qp.Submit(r, &c.Command)
		cmds = append(cmds, c)
	}
	var first error
	for _, c := range cmds {
		if err := s.qp.Await(r, &c.Command); err != nil && first == nil {
			first = err
		}
		s.release(c)
	}
	return first
}

func (s *KVRegion) compoundCmd(entries []memtable.Entry, payload int) *kvCmd {
	c := s.cmd(kvPutCompound, kvHeader+payload)
	c.entries = entries
	return c
}

// KVGet issues a GET; the value (if any) is DMA'd back with the
// completion.
func (s *KVRegion) KVGet(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, err error) {
	c := s.cmd(kvGet, kvHeader+len(key))
	c.key = key
	err = s.qp.Do(r, &c.Command)
	value, kind, found = c.value, c.kind, c.found
	s.release(c)
	if err != nil {
		return nil, 0, false, err
	}
	return value, kind, found, nil
}

// KVReset clears this slice's Dev-LSM (§V-E step 8). Other slices of the
// same device keep their pairs.
func (s *KVRegion) KVReset(r *vclock.Runner) error {
	return s.do(r, s.cmd(kvReset, kvHeader))
}

// KVBulkScan performs the iterator-based bulky range scan used by the
// rollback (§V-E steps 3-6) in two phases: one SCAN command under which
// the device bulk-reads and merges this slice's contents into
// DMAChunkSize chunks, then one transfer command per chunk DMA'd back to
// the host, after which the chunk lands (its folded values made flat),
// emit runs on the caller's runner and the chunk is dropped: host work
// between chunks never blocks a firmware slot, and one chunk is flat at
// a time. A scan or transfer error aborts the remaining chunks and is
// returned; the emitted prefix is not the slice's full contents.
func (s *KVRegion) KVBulkScan(r *vclock.Runner, emit func(entries []memtable.Entry)) error {
	scan := s.cmd(kvScan, kvHeader)
	err := s.qp.Do(r, &scan.Command)
	chunks := scan.chunks
	s.release(scan)
	if err != nil {
		return err
	}
	for i := range chunks {
		if err := s.do(r, s.cmd(kvScanXfer, chunks[i].Bytes)); err != nil {
			return err
		}
		emit(chunks[i].Entries())
		chunks[i] = devlsm.ScanChunk{}
	}
	return nil
}

// newKVIterator opens a device-side iterator over this slice
// (CreateIterator command); records stream back over PCIe as the cursor
// advances.
func (s *KVRegion) newKVIterator(r *vclock.Runner) *KVIterator {
	c := s.cmd(kvIterOpen, kvHeader)
	_ = s.qp.Do(r, &c.Command) // a failed open leaves dit nil: the cursor is never valid
	dit := c.dit
	s.release(c)
	return &KVIterator{s: s, r: r, it: dit}
}

// NewKVIterator opens a device-side iterator over this slice.
func (s *KVRegion) NewKVIterator(r *vclock.Runner) iterkit.Iterator {
	return s.newKVIterator(r)
}

// KVEmpty reports whether this slice buffers no data.
func (s *KVRegion) KVEmpty() bool { return s.lsm.Empty() }

// KVUsage returns the buffered pair count and logical bytes — the KV
// interface's usage report (EXIST/LIST-style accounting).
func (s *KVRegion) KVUsage() (entries, bytes int64) {
	return s.lsm.Count(), s.lsm.Bytes()
}
