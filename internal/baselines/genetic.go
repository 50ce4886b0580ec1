package baselines

import (
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Genetic minimizes hop-bytes with a permutation genetic algorithm in the
// spirit of Arunkumar & Chockalingam: a population of mappings evolves by
// tournament selection, PMX (partially mapped) crossover, and swap
// mutation, with elitism. Like the paper's other physical-optimization
// comparators it reaches good quality at a running time orders of
// magnitude beyond the heuristics.
type Genetic struct {
	// Seed drives all randomness.
	Seed int64
	// Population size; zero means 48.
	Population int
	// Generations; zero means 120.
	Generations int
	// MutationRate is per-offspring swap-mutation probability; zero means
	// 0.3.
	MutationRate float64
}

// Name implements core.Strategy.
func (Genetic) Name() string { return "Genetic" }

// Map implements core.Strategy.
func (s Genetic) Map(g *taskgraph.Graph, t topology.Topology) (core.Mapping, error) {
	if err := core.CheckSizes(g, t); err != nil {
		return nil, err
	}
	n := t.Nodes()
	pop := s.Population
	if pop <= 0 {
		pop = 48
	}
	gens := s.Generations
	if gens <= 0 {
		gens = 120
	}
	mut := s.MutationRate
	if mut <= 0 {
		mut = 0.3
	}
	rng := rand.New(rand.NewSource(s.Seed))

	type individual struct {
		m  core.Mapping
		hb float64
	}
	population := make([]individual, pop)
	for i := range population {
		m := core.Mapping(rng.Perm(n))
		population[i] = individual{m: m, hb: core.HopBytes(g, t, m)}
	}
	byFitness := func() {
		sort.Slice(population, func(i, j int) bool { return population[i].hb < population[j].hb })
	}
	byFitness()

	tournament := func() individual {
		a := population[rng.Intn(pop)]
		b := population[rng.Intn(pop)]
		if a.hb <= b.hb {
			return a
		}
		return b
	}

	elite := pop / 8
	if elite < 1 {
		elite = 1
	}
	next := make([]individual, pop)
	for gen := 0; gen < gens; gen++ {
		copy(next[:elite], population[:elite])
		for i := elite; i < pop; i++ {
			p1, p2 := tournament(), tournament()
			child := pmx(p1.m, p2.m, rng)
			if rng.Float64() < mut {
				a, b := rng.Intn(n), rng.Intn(n)
				child[a], child[b] = child[b], child[a]
			}
			next[i] = individual{m: child, hb: core.HopBytes(g, t, child)}
		}
		population, next = next, population
		byFitness()
	}
	return population[0].m.Clone(), nil
}

// pmx performs partially-mapped crossover on two permutations: a random
// segment of p1 is inherited verbatim; the rest comes from p2 with
// conflicts resolved through the segment's mapping, preserving
// permutation validity.
func pmx(p1, p2 core.Mapping, rng *rand.Rand) core.Mapping {
	n := len(p1)
	child := make(core.Mapping, n)
	for i := range child {
		child[i] = -1
	}
	lo := rng.Intn(n)
	hi := lo + rng.Intn(n-lo)
	inSegment := make(map[int]int, hi-lo+1) // value -> position in child
	for i := lo; i <= hi; i++ {
		child[i] = p1[i]
		inSegment[p1[i]] = i
	}
	for i := 0; i < n; i++ {
		if i >= lo && i <= hi {
			continue
		}
		v := p2[i]
		// Follow the PMX chain until the value is free in the child.
		for {
			pos, clash := inSegment[v]
			if !clash {
				break
			}
			v = p2[pos]
		}
		child[i] = v
	}
	return child
}
