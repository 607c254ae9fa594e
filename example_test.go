package kvaccel_test

import (
	"fmt"

	"kvaccel"
)

// Example demonstrates the basic lifecycle: open the simulated machine,
// run a workload thread, read back, and join the simulation.
func Example() {
	db := kvaccel.Open(kvaccel.DefaultOptions())
	db.Run("main", func(r *kvaccel.Runner) {
		defer db.Close()
		_ = db.Put(r, []byte("hello"), []byte("world"))
		v, ok, _ := db.Get(r, []byte("hello"))
		fmt.Println(ok, string(v))
	})
	db.Wait()
	// Output: true world
}

// ExampleDB_WriteBatch commits several operations atomically.
func ExampleDB_WriteBatch() {
	db := kvaccel.Open(kvaccel.DefaultOptions())
	db.Run("main", func(r *kvaccel.Runner) {
		defer db.Close()
		var b kvaccel.Batch
		b.Put([]byte("a"), []byte("1"))
		b.Put([]byte("b"), []byte("2"))
		b.Delete([]byte("c"))
		_ = db.WriteBatch(r, &b)
		fmt.Println("committed", b.Len(), "ops")
	})
	db.Wait()
	// Output: committed 3 ops
}

// ExampleDB_NewIterator scans a key range through the dual-LSM cursor.
func ExampleDB_NewIterator() {
	db := kvaccel.Open(kvaccel.DefaultOptions())
	db.Run("main", func(r *kvaccel.Runner) {
		defer db.Close()
		for _, k := range []string{"cherry", "apple", "banana"} {
			_ = db.Put(r, []byte(k), []byte("fruit"))
		}
		it := db.NewIterator(r)
		defer it.Close()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			fmt.Println(string(it.Key()))
		}
	})
	db.Wait()
	// Output:
	// apple
	// banana
	// cherry
}

// ExampleDB_NewIterator_acrossBothLSMs is the §V-F range query: even keys
// go to the Main-LSM, odd keys are redirected into the Dev-LSM during a
// forced stall, and the dual iterator (Figure 10) merges both into one
// ordered stream in which the newer, redirected copy of a key wins.
func ExampleDB_NewIterator_acrossBothLSMs() {
	opt := kvaccel.DefaultOptions()
	opt.Rollback = kvaccel.RollbackDisabled // keep the Dev-LSM populated
	db := kvaccel.Open(opt)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key %04d", i)) }
	db.Run("main", func(r *kvaccel.Runner) {
		defer db.Close()
		kv, dev := db.Shard(0), db.Device().Dev
		for i := 0; i < 2000; i += 2 {
			_ = db.Put(r, key(i), []byte(fmt.Sprintf("main-%d", i)))
		}
		kv.Detector().SetOverride(true) // the stall path
		for i := 1; i < 2000; i += 2 {
			_ = db.Put(r, key(i), []byte(fmt.Sprintf("dev-%d", i)))
		}
		_ = db.Put(r, key(100), []byte("dev-wins"))
		kv.Detector().SetOverride(false)
		fmt.Println("Dev-LSM pairs:", dev.Count())

		it := db.NewIterator(r)
		defer it.Close()
		for it.Seek(key(98)); it.Valid() && string(it.Key()) < string(key(103)); it.Next() {
			fmt.Printf("%s = %s\n", it.Key(), it.Value())
		}
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		fmt.Println("keys in the merged stream:", n)
	})
	db.Wait()
	// Output:
	// Dev-LSM pairs: 1001
	// key 0098 = main-98
	// key 0099 = dev-99
	// key 0100 = dev-wins
	// key 0101 = dev-101
	// key 0102 = main-102
	// keys in the merged stream: 2000
}

// ExampleDB_Recover is the §VI-D crash: pairs redirected into the Dev-LSM
// sit in NAND, so losing the host's volatile metadata table hides them
// only until Recover rolls every one back into the Main-LSM.
func ExampleDB_Recover() {
	opt := kvaccel.DefaultOptions()
	opt.Rollback = kvaccel.RollbackDisabled
	db := kvaccel.Open(opt)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
	db.Run("main", func(r *kvaccel.Runner) {
		defer db.Close()
		kv, dev := db.Shard(0), db.Device().Dev
		const pairs = 10_000
		kv.Detector().SetOverride(true) // the stall path
		for i := 0; i < pairs; i++ {
			_ = db.Put(r, key(i), []byte(fmt.Sprintf("value-%d", i)))
		}
		kv.Detector().SetOverride(false)
		fmt.Println("buffered in the Dev-LSM:", dev.Count())

		db.SimulateCrash()
		_, ok, _ := db.Get(r, key(42))
		fmt.Println("readable after the crash:", ok)

		_ = db.Recover(r)
		missing := 0
		for i := 0; i < pairs; i++ {
			if _, ok, _ := db.Get(r, key(i)); !ok {
				missing++
			}
		}
		fmt.Println("missing after Recover:", missing)
		fmt.Println("Dev-LSM empty:", dev.Empty())
	})
	db.Wait()
	// Output:
	// buffered in the Dev-LSM: 10000
	// readable after the crash: false
	// missing after Recover: 0
	// Dev-LSM empty: true
}
