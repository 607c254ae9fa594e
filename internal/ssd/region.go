package ssd

import (
	"fmt"

	"kvaccel/internal/devlsm"
	"kvaccel/internal/ftl"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/nvme"
	"kvaccel/internal/pcie"
	"kvaccel/internal/vclock"
)

// KVRegion is a region-scoped view of the KV interface: its own Dev-LSM
// over a slice of the KV region's pages and its own NVMe queue pair,
// sharing the device's PCIe link, dispatcher, and ARM controller core
// with every other slice. A full-region view (KVRegionFull) behaves
// exactly like the device-level KV commands; per-shard slices
// (KVRegionSlices) are the independent write domains of the sharded
// front-end — each shard submits on its own queue (multi-queue NVMe) and
// can buffer, scan, and reset without touching its neighbours' pairs.
type KVRegion struct {
	dev *Device
	lsm *devlsm.DevLSM
	qp  *nvme.QueuePair
}

// KVRegionFull returns the view covering the whole KV region (the
// device's default Dev-LSM).
func (d *Device) KVRegionFull() *KVRegion { return d.full }

// KVRegionSlices partitions the KV region into n near-equal page slices,
// each backed by its own Dev-LSM instance and its own queue pair. The
// device DRAM budget for write buffering (DevLSM.MemtableBytes) is split
// evenly so total controller memory matches the unsharded configuration.
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

// DevLSM exposes the slice's backing store (stats, tests).
func (s *KVRegion) DevLSM() *devlsm.DevLSM { return s.lsm }

// QueuePair exposes the slice's queue pair (stats, tests).
func (s *KVRegion) QueuePair() *nvme.QueuePair { return s.qp }

// KVPut issues a PUT (or a redirected tombstone) over the KV interface:
// one queued command whose body DMAs header+record and runs the Dev-LSM
// insert on the controller.
func (s *KVRegion) KVPut(r *vclock.Runner, kind memtable.Kind, key, value []byte) error {
	payload := kvHeader + len(key) + len(value)
	cmd := &nvme.Command{Op: "KV_PUT", Bytes: payload, Exec: func(w *vclock.Runner) error {
		s.dev.Link.Transfer(w, pcie.HostToDevice, payload)
		s.dev.armOverhead(w)
		return s.lsm.Put(w, kind, key, value)
	}}
	return s.qp.Do(r, cmd)
}

// KVDelete issues a DELETE: a tombstone PUT over the KV interface.
func (s *KVRegion) KVDelete(r *vclock.Runner, key []byte) error {
	return s.KVPut(r, memtable.KindDelete, key, nil)
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
	if chunkBudget < 1 {
		chunkBudget = 512 << 10
	}
	nChunks := (payload + chunkBudget - 1) / chunkBudget
	if nChunks <= 1 {
		return s.qp.Do(r, s.compoundCmd(entries, payload))
	}
	parts := make([][]memtable.Entry, nChunks)
	for _, e := range entries {
		i := int(hashKey(e.Key) % uint64(nChunks))
		parts[i] = append(parts[i], e)
	}
	var subs []submission
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		sz := 0
		for _, e := range part {
			sz += len(e.Key) + len(e.Value) + 8
		}
		cmd := s.compoundCmd(part, sz)
		s.qp.Submit(r, cmd)
		subs = append(subs, submission{s.qp, cmd})
	}
	return awaitAll(r, subs)
}

func (s *KVRegion) compoundCmd(entries []memtable.Entry, payload int) *nvme.Command {
	return &nvme.Command{Op: "KV_PUT_COMPOUND", Bytes: kvHeader + payload, Exec: func(w *vclock.Runner) error {
		s.dev.Link.Transfer(w, pcie.HostToDevice, kvHeader+payload)
		s.dev.armOverhead(w)
		var first error
		for _, e := range entries {
			if err := s.lsm.Put(w, e.Kind, e.Key, e.Value); err != nil && first == nil {
				first = err
			}
		}
		return first
	}}
}

// hashKey is FNV-1a, used only to spread compound sub-commands.
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// KVGet issues a GET; the value (if any) is DMA'd back with the
// completion.
func (s *KVRegion) KVGet(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, err error) {
	cmd := &nvme.Command{Op: "KV_GET", Bytes: kvHeader + len(key), Exec: func(w *vclock.Runner) error {
		s.dev.Link.Transfer(w, pcie.HostToDevice, kvHeader+len(key))
		s.dev.armOverhead(w)
		var gerr error
		value, kind, found, gerr = s.lsm.Get(w, key)
		if gerr != nil {
			return gerr
		}
		ret := 16
		if found {
			ret += len(value)
		}
		s.dev.Link.Transfer(w, pcie.DeviceToHost, ret)
		return nil
	}}
	err = s.qp.Do(r, cmd)
	if err != nil {
		return nil, 0, false, err
	}
	return value, kind, found, nil
}

// KVReset clears this slice's Dev-LSM (§V-E step 8). Other slices of the
// same device keep their pairs.
func (s *KVRegion) KVReset(r *vclock.Runner) error {
	cmd := &nvme.Command{Op: "KV_RESET", Bytes: kvHeader, Exec: func(w *vclock.Runner) error {
		s.dev.Link.Transfer(w, pcie.HostToDevice, kvHeader)
		s.dev.armOverhead(w)
		s.lsm.Reset()
		return nil
	}}
	return s.qp.Do(r, cmd)
}

// KVBulkScan performs the iterator-based bulky range scan used by the
// rollback (§V-E steps 3-6) in two phases: one SCAN command under which
// the device bulk-reads and merges this slice's contents into
// DMAChunkSize chunks, then one transfer command per chunk DMA'd back to
// the host. emit runs on the caller's runner between transfers, so host
// work between chunks (gate acquisition, Main-LSM inserts) never blocks a
// device firmware slot.
// A scan or transfer command that completes with an error aborts the
// remaining chunks and surfaces the error; the caller must not treat
// the emitted prefix as the slice's full contents.
func (s *KVRegion) KVBulkScan(r *vclock.Runner, emit func(entries []memtable.Entry)) error {
	var chunks []devlsm.ScanChunk
	scan := &nvme.Command{Op: "KV_SCAN", Bytes: kvHeader, Exec: func(w *vclock.Runner) error {
		s.dev.Link.Transfer(w, pcie.HostToDevice, kvHeader)
		s.dev.armOverhead(w)
		s.lsm.BulkScan(w, s.dev.cfg.DMAChunkSize, func(c devlsm.ScanChunk) {
			chunks = append(chunks, c)
		})
		return nil
	}}
	if err := s.qp.Do(r, scan); err != nil {
		return err
	}
	for _, c := range chunks {
		c := c
		xfer := &nvme.Command{Op: "KV_SCAN_XFER", Bytes: c.Bytes, Exec: func(w *vclock.Runner) error {
			s.dev.Link.Transfer(w, pcie.DeviceToHost, c.Bytes)
			return nil
		}}
		if err := s.qp.Do(r, xfer); err != nil {
			return err
		}
		emit(c.Entries)
	}
	return nil
}

// newKVIterator opens a device-side iterator over this slice
// (CreateIterator command); records stream back over PCIe as the cursor
// advances.
func (s *KVRegion) newKVIterator(r *vclock.Runner) *KVIterator {
	var dit *devlsm.Iterator
	cmd := &nvme.Command{Op: "KV_ITER_OPEN", Bytes: kvHeader, Exec: func(w *vclock.Runner) error {
		s.dev.Link.Transfer(w, pcie.HostToDevice, kvHeader)
		s.dev.armOverhead(w)
		dit = s.lsm.NewIterator(w)
		return nil
	}}
	_ = s.qp.Do(r, cmd)
	return &KVIterator{d: s.dev, qp: s.qp, r: r, it: dit}
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
