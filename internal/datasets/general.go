package datasets

// GeneralCorpus builds the pre-training corpus for the pretrained-model
// substitute (the SentenceBERT stand-in). It covers generic
// vocabulary — filler words, genre words and their colloquial synonyms,
// political topics and paraphrases, country names, STS topic words and
// person names — with stable co-occurrence structure, but none of the
// entity-specific facts of any scenario world (no movie-to-actor
// bindings). Domain terms like the audit vocabulary appear only rarely and
// in generic contexts, matching how web-scale pre-training covers the
// words but not their domain-specific meaning (§V-F2: "Models pre-trained
// on general corpora do not help much in a domain specific scenario").
func GeneralCorpus(seed int64, sentences int) [][]string {
	r := newRng(seed)
	out := make([][]string, 0, sentences)
	for i := 0; i < sentences; i++ {
		if i%17 == 16 {
			// Sparse, unstructured sightings of domain words: the model
			// knows the tokens, with weak and generic neighbourhoods.
			sent := []string{pick(r, auditConcepts), pick(r, auditModifiers)}
			sent = append(sent, pickN(r, generalWords, 6)...)
			out = append(out, shuffled(r, sent))
			continue
		}
		switch i % 5 {
		case 0: // movie-talk cluster: genre words with their synonyms
			g := pick(r, genres)
			sent := []string{g}
			sent = append(sent, pickN(r, genreSynonyms[g], 2)...)
			sent = append(sent, pickN(r, reviewFiller, 4)...)
			sent = append(sent, pick(r, firstNames), pick(r, lastNames))
			out = append(out, shuffled(r, sent))
		case 1: // politics cluster: topics, verbs and paraphrases co-occur
			v := pick(r, claimObjects)
			sent := []string{pick(r, claimTopics), v, pick(r, claimVerbs)}
			if alts, ok := claimParaphrase[v]; ok {
				sent = append(sent, pick(r, alts))
			}
			sent = append(sent, pickN(r, generalWords, 4)...)
			out = append(out, shuffled(r, sent))
		case 2: // geography cluster
			sent := []string{pick(r, countries), pick(r, countries), pick(r, months)}
			sent = append(sent, pickN(r, generalWords, 5)...)
			out = append(out, shuffled(r, sent))
		case 3: // everyday scenes (STS topics)
			topic := pick(r, stsTopics)
			sent := append([]string{}, pickN(r, topic, 4)...)
			sent = append(sent, pickN(r, generalWords, 3)...)
			out = append(out, shuffled(r, sent))
		default: // plain general text
			out = append(out, pickN(r, generalWords, 8))
		}
	}
	return out
}
