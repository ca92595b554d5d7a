package tellme

import "fmt"

// Example is the quick start: players with similar taste split the
// cost of exploring the object space by sharing probe results on a
// public billboard.
func Example() {
	// Identical tastes among colluding adversaries (D = 0, Theorem 3.1):
	// the community reconstructs all 1024 grades from a few dozen probes
	// per player.
	inst := AdversarialInstance(1024, 1024, 0.5, 0, 42)
	rep, err := Run(inst, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 7})
	if err != nil {
		panic(err)
	}
	c := rep.Communities[0]
	fmt.Printf("identical tastes: %d players, max %d probes of %d, worst error %d\n",
		c.Size, rep.MaxProbes, inst.M, c.Discrepancy)

	// A community of diameter 8 that is not told its diameter (Section
	// 6) gets constant stretch ρ = worst error / diameter (Theorem 1.1).
	// The polylog bound has large constants: it crosses below the solo
	// cost only at much larger n (EXPERIMENTS.md, E8).
	inst2 := PlantedInstance(256, 256, 0.5, 8, 43)
	rep2, err := Run(inst2, Options{Algorithm: AlgoAuto, Alpha: 0.5, Seed: 8})
	if err != nil {
		panic(err)
	}
	c2 := rep2.Communities[0]
	fmt.Printf("unknown diameter: worst error %d on diameter %d, stretch %.2f, max %d probes\n",
		c2.Discrepancy, c2.Diameter, c2.Stretch, rep2.MaxProbes)
	// Output:
	// identical tastes: 512 players, max 26 probes of 1024, worst error 0
	// unknown diameter: worst error 4 on diameter 8, stretch 0.50, max 12383 probes
}

// ExampleMultiCommunityInstance is the ad-placement scenario from the
// paper's introduction: probing a (user, product) pair means showing
// the user an ad, and the click reveals the grade at the cost of one
// impression. One Zero Radius run recovers every audience segment's
// taste profile at once, told only a lower bound α on segment size.
func ExampleMultiCommunityInstance() {
	const users, products = 900, 1024
	// 40% casual, 25% enthusiasts, 15% bargain hunters, and a 20%
	// idiosyncratic tail.
	inst := MultiCommunityInstance(users, products, []CommunitySpec{
		{Alpha: 0.40, D: 0},
		{Alpha: 0.25, D: 0},
		{Alpha: 0.15, D: 0},
	}, 2026)
	rep, err := Run(inst, Options{Algorithm: AlgoZero, Alpha: 0.15, Seed: 11})
	if err != nil {
		panic(err)
	}
	fmt.Printf("impressions per user: max %d of %d\n", rep.MaxProbes, products)
	for i, c := range rep.Communities {
		fmt.Printf("segment %d: %d users, worst-err %d\n", i+1, c.Size, c.Discrepancy)
	}
	// Output:
	// impressions per user: max 72 of 1024
	// segment 1: 360 users, worst-err 0
	// segment 2: 225 users, worst-err 0
	// segment 3: 135 users, worst-err 0
}

func ExampleRun() {
	inst := IdenticalInstance(256, 256, 0.5, 42)
	rep, err := Run(inst, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 7})
	if err != nil {
		panic(err)
	}
	c := rep.Communities[0]
	fmt.Printf("community %d players, worst error %d, probes/player %d of %d\n",
		c.Size, c.Discrepancy, rep.MaxProbes, inst.M)
	// Output: community 128 players, worst error 0, probes/player 16 of 256
}

func ExampleRunBaseline() {
	inst := IdenticalInstance(128, 128, 0.5, 9)
	rep, err := RunBaseline(inst, BaselineOptions{Baseline: BaselineMajority, Budget: 16, Seed: 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("majority baseline probes/player: %d\n", rep.MaxProbes)
	// Output: majority baseline probes/player: 16
}

func ExampleEncodeValuesInstance() {
	values := [][]int{
		{0, 3, 1},
		{0, 3, 1},
		{2, 2, 2},
	}
	inst, err := EncodeValuesInstance(values, 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d players × %d objects → %d binary objects\n",
		inst.N, 3, inst.M)
	decoded, undecided := DecodeValues(PartialOfVector(inst.Vector(0)), 3, 4)
	fmt.Println(decoded, undecided)
	// Output:
	// 3 players × 3 objects → 6 binary objects
	// [0 3 1] 0
}

func ExampleRunOneGood() {
	// Reference [4]: find one liked object each. 4 shared liked objects
	// among 1024; recommendation propagation makes the community's
	// search nearly free.
	inst := SharedLikesInstance(128, 1024, 0.5, 4, 4, 1)
	res, err := RunOneGood(inst, OneGoodOptions{Seed: 2})
	if err != nil {
		panic(err)
	}
	comm := inst.Communities[0].Members
	worst := 0
	for _, p := range comm {
		if res.FoundAt[p] > worst {
			worst = res.FoundAt[p]
		}
	}
	fmt.Printf("all %d community members satisfied within %d rounds\n", len(comm), worst)
	// Output: all 64 community members satisfied within 9 rounds
}

func ExampleRunRefresh() {
	inst := IdenticalInstance(128, 128, 0.5, 95)
	first, _ := Run(inst, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 96})
	// the world drifts by 6 coordinates; repair instead of re-running
	drifted := DriftInstance(inst, 6, 0, 97)
	rep, _ := RunRefresh(drifted, first.Outputs, RefreshOptions{
		Alpha: 0.5, ExpectedDrift: 6, Seed: 98,
	})
	fmt.Printf("repaired with %d probes/player (fresh run took %d), error %d\n",
		rep.MaxProbes, first.MaxProbes, rep.Communities[0].Discrepancy)
	// Output: repaired with 10 probes/player (fresh run took 16), error 0
}
