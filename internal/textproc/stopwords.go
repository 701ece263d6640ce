package textproc

import "strings"

// defaultStopwords is a standard English stop-word list (the union of the
// classic SMART/Snowball short lists), applied during pre-processing so that
// function words never become data nodes (paper §II).
var defaultStopwords = func() map[string]struct{} {
	words := `a about above after again against all am an and any are aren
as at be because been before being below between both but by can cannot
could couldn did didn do does doesn doing don down during each few for from
further had hadn has hasn have haven having he her here hers herself him
himself his how i if in into is isn it its itself just ll me mightn more
most mustn my myself needn no nor not now o of off on once only or other
our ours ourselves out over own re s same shan she should shouldn so some
such t than that the their theirs them themselves then there these they
this those through to too under until up ve very was wasn we were weren
what when where which while who whom why will with won would wouldn you
your yours yourself yourselves`
	m := make(map[string]struct{}, 160)
	for _, w := range strings.Fields(words) {
		m[w] = struct{}{}
	}
	return m
}()
