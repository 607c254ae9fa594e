package ssd

import (
	"kvaccel/internal/devlsm"
	"kvaccel/internal/faults"
	"kvaccel/internal/ftl"
	"kvaccel/internal/memtable"
	"kvaccel/internal/nvme"
	"kvaccel/internal/pcie"
	"kvaccel/internal/vclock"
)

// Every command this package issues is a typed command: a struct that
// embeds nvme.Command, carries its operands (and results) as fields, and
// binds Step to its step method once, when the struct is first made. A
// body steps natively where the device path is hot — a KV put, a scan
// chunk's DMA, block I/O — and runs its blocking form in one
// vclock.Runner.Call where it is cold. A
// command goes back on its region's or namespace's free list only after
// Await has returned — from then on the device touches nothing of it —
// and with every reference into the caller's or the device's memory
// cleared. The free list therefore never holds more commands than were
// once in flight together, and a command in steady state costs the host
// no allocation.

// freeList recycles commands of one kind.
type freeList[T any] struct {
	items []*T
}

// get pops a recycled command, or returns nil when none is free.
func (l *freeList[T]) get() *T {
	n := len(l.items)
	if n == 0 {
		return nil
	}
	c := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return c
}

func (l *freeList[T]) put(c *T) {
	l.items = append(l.items, c)
}

// maxInflight sizes the on-stack list of commands one call keeps in
// flight together: a 6.4 MiB table is 13 MDTS chunks at 512 KiB. Larger
// I/O spills to the heap.
const maxInflight = 32

// kvOp selects the device-side body of a kvCmd.
type kvOp uint8

const (
	kvPut kvOp = iota
	kvPutCompound
	kvGet
	kvReset
	kvScan
	kvScanXfer
	kvIterOpen
	kvSeek
	kvSeekToFirst
	kvNext
)

var kvOpNames = [...]string{
	kvPut:         "KV_PUT",
	kvPutCompound: "KV_PUT_COMPOUND",
	kvGet:         "KV_GET",
	kvReset:       "KV_RESET",
	kvScan:        "KV_SCAN",
	kvScanXfer:    "KV_SCAN_XFER",
	kvIterOpen:    "KV_ITER_OPEN",
	kvSeek:        "KV_SEEK",
	kvSeekToFirst: "KV_SEEK",
	kvNext:        "KV_NEXT",
}

// kvCmd is one command on a KVRegion's queue pair.
type kvCmd struct {
	nvme.Command
	s  *KVRegion
	op kvOp

	// Operands. KV_GET also returns its record in kind, value and found.
	kind    memtable.Kind
	key     []byte
	value   []byte
	entries []memtable.Entry
	it      *KVIterator

	found  bool
	chunks []devlsm.ScanChunk // KV_SCAN's result
	dit    *devlsm.Iterator   // KV_ITER_OPEN's result

	// The body's progress: its stage, the record a put is on, that
	// record's put, and the first put's error or a called body's status.
	stage uint8
	next  int
	put   devlsm.PutState
	first error
}

// cmd takes a command for op off the region's free list, or makes one.
// bytes is the command's host-to-device payload (device-to-host for
// KV_SCAN_XFER).
func (s *KVRegion) cmd(op kvOp, bytes int) *kvCmd {
	c := s.free.get()
	if c == nil {
		c = &kvCmd{s: s}
		c.Step = c.step
	}
	c.op, c.Op, c.Bytes = op, kvOpNames[op], bytes
	return c
}

// release recycles a command whose Await has returned.
func (s *KVRegion) release(c *kvCmd) {
	c.key, c.value, c.entries, c.it, c.chunks, c.dit = nil, nil, nil, nil, nil, nil
	s.free.put(c)
}

// step is a KV command's body (nvme.Command.Step). KV_PUT and
// KV_PUT_COMPOUND step natively (putStep), and so does KV_SCAN_XFER's
// DMA; the cold commands run their blocking body, run, in one
// vclock.Runner.Call, as lsm.DB.GetStep runs a read the memtables cannot
// answer.
func (c *kvCmd) step(w *vclock.Runner) (done bool, err error) {
	switch {
	case c.op == kvPut || c.op == kvPutCompound:
		return c.putStep(w)
	case c.op == kvScanXfer:
		return c.s.dev.Link.TransferStep(w, pcie.DeviceToHost, c.Bytes), nil
	case c.stage == 0:
		c.stage = 1
		w.Call(runKV, c)
		return false, nil
	}
	err, c.stage, c.first = c.first, 0, nil
	return true, err
}

func runKV(w *vclock.Runner, c any) { k := c.(*kvCmd); k.first = k.run(w) }

// putStep is the body of a KV_PUT or KV_PUT_COMPOUND: the payload's DMA
// and the parse, as receive, then the Dev-LSM put of each record in turn.
// It returns the first put's error. While the Dev-LSM is full the command
// completes with faults.ErrCapacityExceeded and puts nothing, unless it is
// a supersede marker, which must land for a crash recovery not to replay
// the pair it supersedes; a compound command is refused whole, so none of
// it lands.
func (c *kvCmd) putStep(w *vclock.Runner) (done bool, err error) {
	s, dev := c.s, c.s.dev
	if c.stage < 2 {
		if !dev.receiveStep(w, &c.stage, c.Bytes) {
			return false, nil
		}
		if s.lsm.Full() && (c.op == kvPutCompound || c.kind != memtable.KindSupersede) {
			c.stage = 0
			return true, faults.ErrCapacityExceeded
		}
		c.stage = 2
	}
	n := len(c.entries)
	if c.op == kvPut {
		n = 1
	}
	for ; c.next < n; c.next++ {
		kind, key, value := c.kind, c.key, c.value
		if c.op == kvPutCompound {
			e := &c.entries[c.next]
			kind, key, value = e.Kind, e.Key, e.Value
		}
		done, err := s.lsm.PutStep(w, &c.put, kind, key, value)
		if !done {
			return false, nil
		}
		if err != nil && c.first == nil {
			c.first = err
		}
	}
	err = c.first
	c.stage, c.next, c.first = 0, 0, nil
	return true, err
}

// run is a cold command's blocking body: a cursor command points the
// device-side cursor's NAND reads at w, and streams the record it lands
// on back to the host.
func (c *kvCmd) run(w *vclock.Runner) (err error) {
	s, dev := c.s, c.s.dev
	if c.it != nil {
		c.it.it.SetRunner(w)
	}
	if c.op == kvNext {
		dev.ARM.Run(w, dev.cfg.KVCommandOverhead/4) // NEXT is lighter than a full command parse
	} else {
		dev.receive(w, c.Bytes)
	}
	switch c.op {
	case kvGet:
		if c.value, c.kind, c.found, err = s.lsm.Get(w, c.key); err != nil {
			return err
		}
		ret := 16
		if c.found {
			ret += len(c.value)
		}
		dev.Link.Transfer(w, pcie.DeviceToHost, ret)
	case kvReset:
		s.lsm.Reset(w)
	case kvScan:
		s.lsm.BulkScan(w, dev.cfg.DMAChunkSize, func(ch devlsm.ScanChunk) {
			c.chunks = append(c.chunks, ch)
		})
	case kvIterOpen:
		c.dit = s.lsm.NewIterator(w)
	case kvSeek:
		c.it.it.Seek(c.key)
	case kvSeekToFirst:
		c.it.it.SeekToFirst()
	case kvNext:
		c.it.it.Next()
	}
	if c.it != nil {
		c.it.transferCurrent(w)
	}
	return nil
}

// blkOp selects the device-side body of a blkCmd.
type blkOp uint8

const (
	blkWrite blkOp = iota
	blkRead
	blkTrim
)

var blkOpNames = [...]string{
	blkWrite: "WRITE",
	blkRead:  "READ",
	blkTrim:  "DSM_TRIM",
}

// blkCmd is one command of a BlockNS: block I/O on the namespace's
// stripe.
type blkCmd struct {
	nvme.Command
	ns *BlockNS
	op blkOp
	q  *nvme.QueuePair // the stripe's pair a read or write chunk went to

	lpns []int // region LPNs: the command's own buffer, refilled by translate

	// The body's progress: its stage and its pages through the FTL.
	stage uint8
	pages ftl.Programs
}

// cmd takes a command for op off the namespace's free list, or makes one.
func (ns *BlockNS) cmd(op blkOp) *blkCmd {
	c := ns.free.get()
	if c == nil {
		c = &blkCmd{ns: ns}
		c.Step = c.step
	}
	c.op, c.Op, c.Background = op, blkOpNames[op], false
	return c
}

// release recycles a command whose Await has returned. The LPN buffer
// stays with the command; it holds only numbers.
func (ns *BlockNS) release(c *blkCmd) {
	c.q = nil
	ns.free.put(c)
}

// step is a block command's body (nvme.Command.Step): a WRITE's DMA in,
// then its pages through the FTL; a READ's pages, then its DMA out; a
// DSM_TRIM's range list received, then its mappings dropped. It asks for
// a call only to run the FTL GC a write leaves due.
func (c *blkCmd) step(w *vclock.Runner) (done bool, err error) {
	dev := c.ns.dev
	if c.op == blkTrim {
		if !dev.receiveStep(w, &c.stage, c.Bytes) {
			return false, nil
		}
		for _, l := range c.lpns {
			dev.FTL.Trim(ftl.BlockRegion, l)
		}
		c.stage = 0
		return true, nil
	}
	switch c.stage {
	case 0:
		if c.op == blkWrite && !dev.Link.TransferStep(w, pcie.HostToDevice, c.Bytes) {
			return false, nil
		}
		c.pages, c.stage = dev.FTL.Begin(w.Clock(), ftl.BlockRegion, c.lpns, c.op == blkRead), 1
		fallthrough
	case 1:
		if done, _ = dev.FTL.FinishStep(w, &c.pages); !done {
			return false, nil
		}
		c.stage = 2
	}
	if c.op == blkRead && !dev.Link.TransferStep(w, pcie.DeviceToHost, c.Bytes) {
		return false, nil
	}
	c.stage = 0
	return dev.FTL.FinishStep(w, &c.pages) // done: the pages' status
}
