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
// binds Exec to its run method once, when the struct is first made. A
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

	// A KV_PUT or KV_PUT_COMPOUND is stepped (putStep, bound once like
	// Exec): its stage, the record it is on, that record's put and the
	// first put's error.
	putStep func(w *vclock.Runner) (done bool, err error)
	stage   uint8
	next    int
	put     devlsm.PutState
	first   error
}

// cmd takes a command for op off the region's free list, or makes one.
// bytes is the command's host-to-device payload (device-to-host for
// KV_SCAN_XFER).
func (s *KVRegion) cmd(op kvOp, bytes int) *kvCmd {
	c := s.free.get()
	if c == nil {
		c = &kvCmd{s: s}
		c.Exec, c.putStep = c.run, c.step
	}
	c.op, c.Op, c.Bytes, c.Step = op, kvOpNames[op], bytes, nil
	if op == kvPut || op == kvPutCompound {
		c.Step = c.putStep
	}
	return c
}

// release recycles a command whose Await has returned.
func (s *KVRegion) release(c *kvCmd) {
	c.key, c.value, c.entries, c.it, c.chunks, c.dit = nil, nil, nil, nil, nil, nil
	s.free.put(c)
}

// step is the body of a KV_PUT or KV_PUT_COMPOUND as a stepped primitive
// (nvme.Command.Step): the payload's DMA and the parse, as receive, then
// the Dev-LSM put of each record in turn. It returns the first put's
// error. While the Dev-LSM is full the command completes with
// faults.ErrCapacityExceeded and puts nothing, unless it is a supersede
// marker, which must land for a crash recovery not to replay the pair it
// supersedes; a compound command is refused whole, so none of it lands.
func (c *kvCmd) step(w *vclock.Runner) (done bool, err error) {
	s, dev := c.s, c.s.dev
	switch c.stage {
	case 0:
		if !dev.Link.TransferStep(w, pcie.HostToDevice, c.Bytes) {
			return false, nil
		}
		c.stage = 1
		fallthrough
	case 1:
		if !dev.ARM.RunStep(w, dev.cfg.KVCommandOverhead) {
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

func (c *kvCmd) run(w *vclock.Runner) error {
	s, dev := c.s, c.s.dev
	switch c.op {
	case kvGet:
		dev.receive(w, c.Bytes)
		var err error
		c.value, c.kind, c.found, err = s.lsm.Get(w, c.key)
		if err != nil {
			return err
		}
		ret := 16
		if c.found {
			ret += len(c.value)
		}
		dev.Link.Transfer(w, pcie.DeviceToHost, ret)
	case kvReset:
		dev.receive(w, c.Bytes)
		s.lsm.Reset(w)
	case kvScan:
		dev.receive(w, c.Bytes)
		s.lsm.BulkScan(w, dev.cfg.DMAChunkSize, func(ch devlsm.ScanChunk) {
			c.chunks = append(c.chunks, ch)
		})
	case kvScanXfer:
		dev.Link.Transfer(w, pcie.DeviceToHost, c.Bytes)
	case kvIterOpen:
		dev.receive(w, c.Bytes)
		c.dit = s.lsm.NewIterator(w)
	case kvSeek:
		c.it.it.SetRunner(w)
		dev.receive(w, c.Bytes)
		c.it.it.Seek(c.key)
		c.it.transferCurrent(w)
	case kvSeekToFirst:
		c.it.it.SetRunner(w)
		dev.receive(w, c.Bytes)
		c.it.it.SeekToFirst()
		c.it.transferCurrent(w)
	case kvNext:
		c.it.it.SetRunner(w)
		if d := dev.cfg.KVCommandOverhead; d > 0 {
			dev.ARM.Run(w, d/4) // NEXT is lighter than a full command parse
		}
		c.it.it.Next()
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
}

// cmd takes a command for op off the namespace's free list, or makes one.
func (ns *BlockNS) cmd(op blkOp) *blkCmd {
	c := ns.free.get()
	if c == nil {
		c = &blkCmd{ns: ns}
		c.Exec = c.run
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

func (c *blkCmd) run(w *vclock.Runner) error {
	dev := c.ns.dev
	switch c.op {
	case blkWrite:
		dev.Link.Transfer(w, pcie.HostToDevice, c.Bytes)
		return dev.FTL.WriteMany(w, ftl.BlockRegion, c.lpns)
	case blkRead:
		err := dev.FTL.ReadMany(w, ftl.BlockRegion, c.lpns)
		dev.Link.Transfer(w, pcie.DeviceToHost, c.Bytes)
		return err
	default: // blkTrim
		dev.receive(w, c.Bytes)
		for _, l := range c.lpns {
			dev.FTL.Trim(ftl.BlockRegion, l)
		}
		return nil
	}
}
