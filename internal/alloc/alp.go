package alloc

// ALP is the Algorithm based on Local Price of slots (Section 3): the search
// window may only contain slots whose individual price per time unit is at
// most the request's cap C. The returned window is the earliest-starting one
// reachable by the single forward scan.
//
// The zero value is ready to use.
type ALP struct{}

// Name implements Algorithm.
func (ALP) Name() string { return "ALP" }
