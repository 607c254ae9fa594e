package core

import (
	"kvaccel/internal/faults"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// devTry runs one KV-device command under the controller's retry policy:
// transient errors (injected media errors, timeouts) are retried with
// exponential backoff on the caller's runner; ErrDeviceGone and other
// terminal errors fail immediately. Every observed error bumps
// DevErrors, every retry DevRetries, and a command that exhausts its
// attempts bumps DevFailed.
func (db *DB) devTry(r *vclock.Runner, op func() error) error {
	pol := faults.DefaultRetryPolicy()
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil {
			return nil
		}
		db.stats.DevErrors++
		if !faults.Transient(err) || attempt >= pol.Attempts() {
			break
		}
		db.stats.DevRetries++
		if d := pol.Delay(attempt); d > 0 {
			r.Sleep(d)
		}
	}
	db.stats.DevFailed++
	return err
}

// devPut is KVPut under the retry policy.
func (db *DB) devPut(r *vclock.Runner, kind memtable.Kind, key, value []byte) error {
	return db.devTry(r, func() error { return db.dev.KVPut(r, kind, key, value) })
}

// devPutCompound is KVPutCompound under the retry policy. The compound
// command is atomic device-side, so a retry after a partial failure is
// a clean re-issue, not a duplicate.
func (db *DB) devPutCompound(r *vclock.Runner, entries []memtable.Entry) error {
	return db.devTry(r, func() error { return db.dev.KVPutCompound(r, entries) })
}

// devGet is KVGet under the retry policy.
func (db *DB) devGet(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, err error) {
	err = db.devTry(r, func() error {
		var gerr error
		value, kind, found, gerr = db.dev.KVGet(r, key)
		return gerr
	})
	return value, kind, found, err
}

// devReset is KVReset under the retry policy.
func (db *DB) devReset(r *vclock.Runner) error {
	return db.devTry(r, func() error { return db.dev.KVReset(r) })
}
