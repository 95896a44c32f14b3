package matching

import (
	"sort"
)

// Greedy pairs the heaviest remaining edge first. It is the ablation
// baseline for the mapping experiments: fast, but not optimal (its
// approximation ratio is 1/2 in the worst case).
func Greedy(w [][]int64) ([]int, int64, error) {
	if err := Validate(w); err != nil {
		return nil, 0, err
	}
	n := len(w)
	type e struct {
		i, j int
		w    int64
	}
	edges := make([]e, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, e{i, j, w[i][j]})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].w != edges[b].w {
			return edges[a].w > edges[b].w
		}
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	for _, ed := range edges {
		if mate[ed.i] == -1 && mate[ed.j] == -1 {
			mate[ed.i], mate[ed.j] = ed.j, ed.i
		}
	}
	return mate, MatchingWeight(w, mate), nil
}
