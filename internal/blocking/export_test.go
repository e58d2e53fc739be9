package blocking

// SortedNeighborhoodByKey exposes the sort-and-slide core under
// SortedNeighborhood to the external tests, with a caller's key.
var SortedNeighborhoodByKey = sortedNeighborhoodByKey
