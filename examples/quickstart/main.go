// Quickstart: a distributed equi-join on a four-host Data Roundabout.
//
// Two million-tuple relations are generated, spread evenly across the ring
// hosts, and joined with the hash join: S stays
// stationary, R's fragments circulate, and after one revolution the union
// of the per-host results is the complete join.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cyclojoin"
)

func main() {
	cluster, err := cyclojoin.NewCluster(cyclojoin.Config{
		Nodes:     4,
		Algorithm: cyclojoin.HashJoin(),
		Predicate: cyclojoin.EquiJoin(),
		Opts:      cyclojoin.JoinOptions{Parallelism: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := cluster.Close(); err != nil {
			log.Print(err)
		}
	}()

	r, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{
		Name: "R", Tuples: 1_000_000, KeyDomain: 500_000, Seed: 1, PayloadWidth: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	s, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{
		Name: "S", Tuples: 1_000_000, KeyDomain: 500_000, Seed: 2, PayloadWidth: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	res, err := cluster.JoinRelations(r, s, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("R ⋈ S: %d matches\n", res.Matches())
	fmt.Printf("setup phase %v (hash tables built once per host)\n", res.SetupTime)
	fmt.Printf("join phase  %v (one full revolution of R)\n", res.JoinTime)

	// The stationed hash tables are reusable: a second revolution joins
	// the same R again without re-running setup (§IV-D).
	res2, err := cluster.Rotate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second revolution (setup reused): %d matches in %v\n", res2.Matches(), res2.JoinTime)
}
