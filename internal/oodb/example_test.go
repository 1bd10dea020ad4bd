package oodb_test

import (
	"fmt"

	"lvm/internal/core"
	"lvm/internal/oodb"
	"lvm/internal/ramdisk"
)

// Example is the object database the paper's introduction motivates: an
// order database, objects and hash index in one recoverable region,
// processes order transactions under RLVM. The LVM log is the only
// write-tracking machinery anywhere. An aborted change is rolled back by
// deferred copy, and after a crash a new machine recovers every committed
// order from the RAM disk. The RLVM-vs-RVM speedup as transactions grow
// is `lvmbench extension-oodb`.
func Example() {
	disk := ramdisk.New()
	cfg := oodb.DefaultConfig()
	open := func() *oodb.Store {
		sys := core.NewSystem(core.DefaultConfig())
		db, err := oodb.OpenRLVM(sys, sys.NewProcess(0, sys.NewAddressSpace()), cfg, disk)
		if err != nil {
			panic(err)
		}
		return db
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	lookup := func(db *oodb.Store, key uint32) uint32 {
		id, ok := db.Lookup(key)
		if !ok {
			panic(fmt.Sprintf("order %d missing", key))
		}
		return id
	}

	db := open()
	must(db.Begin())
	for i := uint32(0); i < 5; i++ {
		if _, err := db.Create(9000+i, []uint32{i * 11, 100 + i, 0}); err != nil {
			panic(err)
		}
	}
	must(db.Commit())

	must(db.Begin()) // ship two orders
	must(db.Update(lookup(db, 9001), 2, 1))
	must(db.Update(lookup(db, 9003), 2, 1))
	must(db.Commit())

	must(db.Begin()) // ship a third, then change our mind
	must(db.Update(lookup(db, 9000), 2, 1))
	must(db.Abort())

	fmt.Println("orders after commits and an abort:")
	for key := uint32(9000); key < 9005; key++ {
		id := lookup(db, key)
		fmt.Printf("  order %d: qty=%-3d cust=%-3d shipped=%d\n",
			key, db.Field(id, 0), db.Field(id, 1), db.Field(id, 2))
	}

	db2 := open() // the crash: a new machine over the same disk
	fmt.Println("recovered after crash: order 9003 shipped =", db2.Field(lookup(db2, 9003), 2))
	// Output:
	// orders after commits and an abort:
	//   order 9000: qty=0   cust=100 shipped=0
	//   order 9001: qty=11  cust=101 shipped=1
	//   order 9002: qty=22  cust=102 shipped=0
	//   order 9003: qty=33  cust=103 shipped=1
	//   order 9004: qty=44  cust=104 shipped=0
	// recovered after crash: order 9003 shipped = 1
}
