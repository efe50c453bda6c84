package vm

// FootprintWalk is Footprint as it was before tables carried an occupancy
// map: every slot of every distinct table read, none of the map. It is
// the oracle TestFootprintMatchesWalk holds Footprint to.
func FootprintWalk(spaces []*Space) int {
	tables := make(map[*table]struct{})
	pages := make(map[*page]struct{})
	for _, s := range spaces {
		for _, t := range s.root {
			if t == nil {
				continue
			}
			if _, seen := tables[t]; seen {
				continue
			}
			tables[t] = struct{}{}
			for j := range t.ptes {
				if pg := t.ptes[j].pg; pg != nil {
					pages[pg] = struct{}{}
				}
			}
		}
	}
	return len(tables) + len(pages)
}
