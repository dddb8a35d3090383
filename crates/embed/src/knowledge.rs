//! Built-in world-knowledge lexicon.
//!
//! A pre-trained language model "knows" that `"CA"` and `"Canada"`, or
//! `"NYC"` and `"New York City"`, refer to the same thing.  The simulated LM
//! embedders draw that knowledge from this lexicon: every alias maps to a
//! *concept id*, and values mapping to the same concept receive a shared
//! semantic component in their embedding.
//!
//! The lexicon is intentionally broader than any single benchmark: country
//! codes, US states, months, common city aliases, organisational
//! abbreviations and first-name nicknames.  The benchmark generator
//! (`lake-benchdata`) reuses parts of it when planting fuzzy matches, and
//! also plants transformations (typos, unseen abbreviations) that are *not*
//! in the lexicon, so even a perfect-coverage simulated model cannot reach a
//! perfect score — mirroring the ceiling observed in the paper's Table 1.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use lake_text::normalize;

use crate::embedder::{fnv1a, splitmix64, Fnv1a};

/// A concept id and the set of surface forms (aliases) that denote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptGroup {
    /// Stable identifier, e.g. `"country:canada"`.
    pub concept: String,
    /// All known aliases (canonical name first).
    pub aliases: Vec<String>,
}

/// What the simulated LM embedders need of a concept, worked out once when
/// the concept is added instead of once per embedded value.
#[derive(Debug, Clone)]
pub(crate) struct Concept {
    id: String,
    /// Seed of the direction shared by the concept's aliases:
    /// `fnv1a("concept:<id>")`.
    pub(crate) seed: u64,
    /// [`difficulty`] of the id: a model knows the concept iff its coverage
    /// exceeds it.
    pub(crate) difficulty: f64,
}

/// How hard a concept (or acronym) is to know, in `[0, 1)`, from the hash of
/// its key.  Difficulty is a property of the concept alone, so a tier with
/// higher coverage knows a superset of what a weaker tier knows.
pub(crate) fn difficulty(key_hash: u64) -> f64 {
    (splitmix64(key_hash) >> 11) as f64 / (1u64 << 53) as f64
}

/// An alias → concept lookup table.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    alias_to_concept: HashMap<String, Concept>,
    groups: BTreeMap<String, Vec<String>>,
}

impl KnowledgeBase {
    /// An empty knowledge base (useful to disable semantic knowledge).
    pub fn empty() -> Self {
        KnowledgeBase { alias_to_concept: HashMap::new(), groups: BTreeMap::new() }
    }

    /// The built-in lexicon.
    pub fn builtin() -> Self {
        let mut kb = KnowledgeBase::empty();
        for (concept, aliases) in builtin_groups() {
            kb.add_group(&concept, aliases.iter().map(|s| s.as_str()));
        }
        kb
    }

    /// The built-in lexicon, built on first use and shared from then on:
    /// every simulated-LM embedder reads the same immutable copy instead of
    /// rebuilding ~600 aliases per embedder (one per integration call).
    pub(crate) fn shared_builtin() -> Arc<KnowledgeBase> {
        static BUILTIN: OnceLock<Arc<KnowledgeBase>> = OnceLock::new();
        Arc::clone(BUILTIN.get_or_init(|| Arc::new(KnowledgeBase::builtin())))
    }

    /// Adds a concept with its aliases.  Aliases are normalised before being
    /// indexed; later insertions never overwrite an existing alias binding.
    pub fn add_group<'a>(&mut self, concept: &str, aliases: impl IntoIterator<Item = &'a str>) {
        let entry = self.groups.entry(concept.to_string()).or_default();
        let indexed = Concept {
            id: concept.to_string(),
            seed: Fnv1a::new().bytes(b"concept:").bytes(concept.as_bytes()).finish(),
            difficulty: difficulty(fnv1a(concept.as_bytes())),
        };
        for alias in aliases {
            let key = normalize(alias);
            if key.is_empty() {
                continue;
            }
            self.alias_to_concept.entry(key).or_insert_with(|| indexed.clone());
            if !entry.iter().any(|a| a == alias) {
                entry.push(alias.to_string());
            }
        }
    }

    /// The concept an alias denotes, if known.
    pub fn concept_of(&self, value: &str) -> Option<&str> {
        self.concept_of_normalized(&normalize(value)).map(|concept| concept.id.as_str())
    }

    /// [`concept_of`](Self::concept_of) for a key that is already
    /// [`normalize`]d, with the concept's precomputed embedding inputs.
    pub(crate) fn concept_of_normalized(&self, key: &str) -> Option<&Concept> {
        self.alias_to_concept.get(key)
    }

    /// Whether two values are known aliases of the same concept.
    pub fn same_concept(&self, a: &str, b: &str) -> bool {
        match (self.concept_of(a), self.concept_of(b)) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }

    /// Number of known aliases.
    pub fn len(&self) -> usize {
        self.alias_to_concept.len()
    }

    /// `true` when the knowledge base holds no aliases.
    pub fn is_empty(&self) -> bool {
        self.alias_to_concept.is_empty()
    }

    /// All concept groups, sorted by concept id (deterministic iteration for
    /// the benchmark generator).
    pub fn groups(&self) -> Vec<ConceptGroup> {
        self.groups
            .iter()
            .map(|(concept, aliases)| ConceptGroup {
                concept: concept.clone(),
                aliases: aliases.clone(),
            })
            .collect()
    }

    /// Concept groups whose id starts with the given prefix
    /// (e.g. `"country:"`), sorted.
    pub fn groups_with_prefix(&self, prefix: &str) -> Vec<ConceptGroup> {
        self.groups
            .iter()
            .filter(|(c, _)| c.starts_with(prefix))
            .map(|(concept, aliases)| ConceptGroup {
                concept: concept.clone(),
                aliases: aliases.clone(),
            })
            .collect()
    }
}

impl Default for KnowledgeBase {
    fn default() -> Self {
        KnowledgeBase::builtin()
    }
}

fn group(concept: &str, aliases: &[&str]) -> (String, Vec<String>) {
    (concept.to_string(), aliases.iter().map(|s| s.to_string()).collect())
}

/// The built-in concept groups.
fn builtin_groups() -> Vec<(String, Vec<String>)> {
    let mut groups = Vec::new();

    // Countries: canonical name, ISO alpha-2, alpha-3, common variants.
    let countries: &[(&str, &str, &str, &[&str])] = &[
        ("Canada", "CA", "CAN", &[]),
        ("United States", "US", "USA", &["United States of America", "U.S.", "America"]),
        ("Germany", "DE", "DEU", &["Deutschland"]),
        ("Spain", "ES", "ESP", &["España"]),
        ("India", "IN", "IND", &[]),
        ("France", "FR", "FRA", &[]),
        ("Italy", "IT", "ITA", &["Italia"]),
        ("United Kingdom", "GB", "GBR", &["UK", "Great Britain", "Britain"]),
        ("Japan", "JP", "JPN", &[]),
        ("China", "CN", "CHN", &["People's Republic of China", "PRC"]),
        ("Brazil", "BR", "BRA", &["Brasil"]),
        ("Mexico", "MX", "MEX", &["México"]),
        ("Australia", "AU", "AUS", &[]),
        ("Netherlands", "NL", "NLD", &["Holland", "The Netherlands"]),
        ("Switzerland", "CH", "CHE", &[]),
        ("Sweden", "SE", "SWE", &[]),
        ("Norway", "NO", "NOR", &[]),
        ("Denmark", "DK", "DNK", &[]),
        ("Finland", "FI", "FIN", &[]),
        ("Poland", "PL", "POL", &[]),
        ("Austria", "AT", "AUT", &["Österreich"]),
        ("Belgium", "BE", "BEL", &[]),
        ("Portugal", "PT", "PRT", &[]),
        ("Greece", "GR", "GRC", &["Hellas"]),
        ("Ireland", "IE", "IRL", &[]),
        ("Russia", "RU", "RUS", &["Russian Federation"]),
        ("Turkey", "TR", "TUR", &["Türkiye"]),
        ("South Korea", "KR", "KOR", &["Korea, Republic of", "Republic of Korea"]),
        ("North Korea", "KP", "PRK", &["Korea, Democratic People's Republic of"]),
        ("South Africa", "ZA", "ZAF", &[]),
        ("Argentina", "AR", "ARG", &[]),
        ("Chile", "CL", "CHL", &[]),
        ("Colombia", "CO", "COL", &[]),
        ("Peru", "PE", "PER", &[]),
        ("Egypt", "EG", "EGY", &[]),
        ("Nigeria", "NG", "NGA", &[]),
        ("Kenya", "KE", "KEN", &[]),
        ("Ethiopia", "ET", "ETH", &[]),
        ("Israel", "IL", "ISR", &[]),
        ("Saudi Arabia", "SA", "SAU", &["KSA"]),
        ("United Arab Emirates", "AE", "ARE", &["UAE"]),
        ("Thailand", "TH", "THA", &[]),
        ("Vietnam", "VN", "VNM", &["Viet Nam"]),
        ("Indonesia", "ID", "IDN", &[]),
        ("Malaysia", "MY", "MYS", &[]),
        ("Singapore", "SG", "SGP", &[]),
        ("Philippines", "PH", "PHL", &["The Philippines"]),
        ("Pakistan", "PK", "PAK", &[]),
        ("Bangladesh", "BD", "BGD", &[]),
        ("New Zealand", "NZ", "NZL", &["Aotearoa"]),
        ("Czech Republic", "CZ", "CZE", &["Czechia"]),
        ("Hungary", "HU", "HUN", &[]),
        ("Romania", "RO", "ROU", &[]),
        ("Ukraine", "UA", "UKR", &[]),
        ("Croatia", "HR", "HRV", &[]),
        ("Serbia", "RS", "SRB", &[]),
        ("Slovakia", "SK", "SVK", &[]),
        ("Slovenia", "SI", "SVN", &[]),
        ("Bulgaria", "BG", "BGR", &[]),
        ("Estonia", "EE", "EST", &[]),
        ("Latvia", "LV", "LVA", &[]),
        ("Lithuania", "LT", "LTU", &[]),
        ("Iceland", "IS", "ISL", &[]),
        ("Luxembourg", "LU", "LUX", &[]),
        ("Morocco", "MA", "MAR", &[]),
        ("Tunisia", "TN", "TUN", &[]),
        ("Ghana", "GH", "GHA", &[]),
        ("Uruguay", "UY", "URY", &[]),
        ("Paraguay", "PY", "PRY", &[]),
        ("Bolivia", "BO", "BOL", &[]),
        ("Ecuador", "EC", "ECU", &[]),
        ("Venezuela", "VE", "VEN", &[]),
        ("Cuba", "CU", "CUB", &[]),
        ("Jamaica", "JM", "JAM", &[]),
        ("Qatar", "QA", "QAT", &[]),
        ("Kuwait", "KW", "KWT", &[]),
        ("Iran", "IR", "IRN", &[]),
        ("Iraq", "IQ", "IRQ", &[]),
        ("Afghanistan", "AF", "AFG", &[]),
        ("Nepal", "NP", "NPL", &[]),
        ("Sri Lanka", "LK", "LKA", &[]),
        ("Myanmar", "MM", "MMR", &["Burma"]),
        ("Cambodia", "KH", "KHM", &[]),
        ("Laos", "LA", "LAO", &[]),
        ("Mongolia", "MN", "MNG", &[]),
        ("Kazakhstan", "KZ", "KAZ", &[]),
        ("Uzbekistan", "UZ", "UZB", &[]),
        ("Georgia", "GE", "GEO", &[]),
        ("Armenia", "AM", "ARM", &[]),
        ("Azerbaijan", "AZ", "AZE", &[]),
        ("Algeria", "DZ", "DZA", &[]),
        ("Libya", "LY", "LBY", &[]),
        ("Sudan", "SD", "SDN", &[]),
        ("Tanzania", "TZ", "TZA", &[]),
        ("Uganda", "UG", "UGA", &[]),
        ("Zimbabwe", "ZW", "ZWE", &[]),
        ("Zambia", "ZM", "ZMB", &[]),
        ("Angola", "AO", "AGO", &[]),
        ("Mozambique", "MZ", "MOZ", &[]),
        ("Senegal", "SN", "SEN", &[]),
        ("Ivory Coast", "CI", "CIV", &["Côte d'Ivoire"]),
        ("Cameroon", "CM", "CMR", &[]),
    ];
    for (name, a2, a3, extra) in countries {
        let mut aliases: Vec<&str> = vec![name, a2, a3];
        aliases.extend_from_slice(extra);
        let concept = format!("country:{}", name.to_lowercase().replace(' ', "_"));
        groups.push((concept, aliases.into_iter().map(String::from).collect()));
    }

    // US states: canonical name and postal abbreviation.
    let states: &[(&str, &str)] = &[
        ("Alabama", "AL"),
        ("Alaska", "AK"),
        ("Arizona", "AZ"),
        ("Arkansas", "AR"),
        ("California", "CA"),
        ("Colorado", "CO"),
        ("Connecticut", "CT"),
        ("Delaware", "DE"),
        ("Florida", "FL"),
        ("Georgia", "GA"),
        ("Hawaii", "HI"),
        ("Idaho", "ID"),
        ("Illinois", "IL"),
        ("Indiana", "IN"),
        ("Iowa", "IA"),
        ("Kansas", "KS"),
        ("Kentucky", "KY"),
        ("Louisiana", "LA"),
        ("Maine", "ME"),
        ("Maryland", "MD"),
        ("Massachusetts", "MA"),
        ("Michigan", "MI"),
        ("Minnesota", "MN"),
        ("Mississippi", "MS"),
        ("Missouri", "MO"),
        ("Montana", "MT"),
        ("Nebraska", "NE"),
        ("Nevada", "NV"),
        ("New Hampshire", "NH"),
        ("New Jersey", "NJ"),
        ("New Mexico", "NM"),
        ("New York", "NY"),
        ("North Carolina", "NC"),
        ("North Dakota", "ND"),
        ("Ohio", "OH"),
        ("Oklahoma", "OK"),
        ("Oregon", "OR"),
        ("Pennsylvania", "PA"),
        ("Rhode Island", "RI"),
        ("South Carolina", "SC"),
        ("South Dakota", "SD"),
        ("Tennessee", "TN"),
        ("Texas", "TX"),
        ("Utah", "UT"),
        ("Vermont", "VT"),
        ("Virginia", "VA"),
        ("Washington", "WA"),
        ("West Virginia", "WV"),
        ("Wisconsin", "WI"),
        ("Wyoming", "WY"),
    ];
    for (name, code) in states {
        // Note: postal codes such as "CA" or "DE" collide with country codes;
        // first insertion wins in `alias_to_concept`, which mirrors the real
        // ambiguity a language model faces with short codes.
        let concept = format!("us_state:{}", name.to_lowercase().replace(' ', "_"));
        groups.push(group(&concept, &[name, code]));
    }

    // Months.
    let months: &[(&str, &str)] = &[
        ("January", "Jan"),
        ("February", "Feb"),
        ("March", "Mar"),
        ("April", "Apr"),
        ("May", "May"),
        ("June", "Jun"),
        ("July", "Jul"),
        ("August", "Aug"),
        ("September", "Sep"),
        ("October", "Oct"),
        ("November", "Nov"),
        ("December", "Dec"),
    ];
    for (name, abbr) in months {
        let concept = format!("month:{}", name.to_lowercase());
        groups.push(group(&concept, &[name, abbr]));
    }

    // City aliases and well-known acronyms.
    let cities: &[(&str, &[&str])] = &[
        ("New York City", &["NYC", "New York", "New York, NY"]),
        ("Los Angeles", &["LA", "L.A.", "Los Angeles, CA"]),
        ("San Francisco", &["SF", "San Fran", "Frisco"]),
        ("Washington, D.C.", &["Washington DC", "DC", "Washington"]),
        ("Saint Petersburg", &["St. Petersburg", "St Petersburg"]),
        ("Mumbai", &["Bombay"]),
        ("Kolkata", &["Calcutta"]),
        ("Chennai", &["Madras"]),
        ("Beijing", &["Peking"]),
        ("Ho Chi Minh City", &["Saigon", "HCMC"]),
        ("Rio de Janeiro", &["Rio"]),
        ("Philadelphia", &["Philly"]),
        ("Las Vegas", &["Vegas"]),
        ("New Delhi", &["Delhi NCR"]),
        ("Mexico City", &["CDMX", "Ciudad de México"]),
    ];
    for (name, aliases) in cities {
        let concept = format!("city:{}", name.to_lowercase().replace(' ', "_"));
        let mut all = vec![*name];
        all.extend_from_slice(aliases);
        groups.push((concept, all.into_iter().map(String::from).collect()));
    }

    // Organisational / generic abbreviations.
    let org: &[(&str, &[&str])] = &[
        ("Department", &["Dept", "Dept."]),
        ("University", &["Univ", "Univ.", "U."]),
        ("International", &["Intl", "Int'l"]),
        ("Corporation", &["Corp", "Corp."]),
        ("Incorporated", &["Inc", "Inc."]),
        ("Limited", &["Ltd", "Ltd."]),
        ("Company", &["Co", "Co."]),
        ("Association", &["Assoc", "Assn"]),
        ("Institute", &["Inst", "Inst."]),
        ("Laboratory", &["Lab", "Labs"]),
        ("Government", &["Govt", "Gov't", "Gov"]),
        ("Management", &["Mgmt"]),
        ("Engineering", &["Engg", "Eng."]),
        ("Avenue", &["Ave", "Ave."]),
        ("Street", &["St", "St."]),
        ("Boulevard", &["Blvd", "Blvd."]),
        ("Road", &["Rd", "Rd."]),
        ("Doctor", &["Dr", "Dr."]),
        ("Professor", &["Prof", "Prof."]),
        ("Senator", &["Sen", "Sen."]),
        ("Representative", &["Rep", "Rep."]),
        ("General", &["Gen", "Gen."]),
        ("President", &["Pres", "Pres."]),
        ("Director", &["Dir", "Dir."]),
        ("Manager", &["Mgr", "Mgr."]),
        ("Number", &["No.", "Num", "#"]),
        ("Mount", &["Mt", "Mt."]),
        ("Fort", &["Ft", "Ft."]),
        ("Saint", &["St."]),
        ("featuring", &["feat.", "ft."]),
        ("versus", &["vs", "vs."]),
    ];
    for (name, aliases) in org {
        let concept = format!("abbrev:{}", name.to_lowercase());
        let mut all = vec![*name];
        all.extend_from_slice(aliases);
        groups.push((concept, all.into_iter().map(String::from).collect()));
    }

    // First-name nicknames (useful for person-entity benchmarks).
    let nicknames: &[(&str, &[&str])] = &[
        ("Robert", &["Bob", "Rob", "Bobby"]),
        ("William", &["Bill", "Will", "Billy"]),
        ("Elizabeth", &["Liz", "Beth", "Eliza"]),
        ("Margaret", &["Maggie", "Peggy", "Meg"]),
        ("Richard", &["Rick", "Dick", "Richie"]),
        ("James", &["Jim", "Jimmy", "Jamie"]),
        ("John", &["Jack", "Johnny"]),
        ("Michael", &["Mike", "Mikey"]),
        ("Katherine", &["Kate", "Katie", "Kathy"]),
        ("Thomas", &["Tom", "Tommy"]),
        ("Christopher", &["Chris", "Topher"]),
        ("Jennifer", &["Jen", "Jenny"]),
        ("Alexander", &["Alex", "Sasha"]),
        ("Edward", &["Ed", "Eddie", "Ted"]),
        ("Charles", &["Charlie", "Chuck"]),
        ("Patricia", &["Pat", "Patty", "Tricia"]),
        ("Daniel", &["Dan", "Danny"]),
        ("Anthony", &["Tony"]),
        ("Joseph", &["Joe", "Joey"]),
        ("Samantha", &["Sam"]),
        ("Benjamin", &["Ben", "Benny"]),
        ("Nicholas", &["Nick", "Nicky"]),
        ("Jonathan", &["Jon"]),
        ("Matthew", &["Matt"]),
        ("Andrew", &["Andy", "Drew"]),
        ("Steven", &["Steve"]),
        ("Timothy", &["Tim"]),
        ("Gregory", &["Greg"]),
        ("Victoria", &["Vicky", "Tori"]),
        ("Rebecca", &["Becky"]),
        ("Susan", &["Sue", "Suzy"]),
        ("Deborah", &["Debbie", "Deb"]),
        ("Barbara", &["Barb"]),
        ("Frederick", &["Fred", "Freddy"]),
        ("Lawrence", &["Larry"]),
        ("Ronald", &["Ron", "Ronnie"]),
        ("Donald", &["Don", "Donny"]),
        ("Kenneth", &["Ken", "Kenny"]),
        ("Raymond", &["Ray"]),
        ("Stephanie", &["Steph"]),
    ];
    for (name, aliases) in nicknames {
        let concept = format!("name:{}", name.to_lowercase());
        let mut all = vec![*name];
        all.extend_from_slice(aliases);
        groups.push((concept, all.into_iter().map(String::from).collect()));
    }

    // Boolean-ish / unit spellings that appear in open data.
    groups.push(group("misc:yes", &["Yes", "Y", "true"]));
    groups.push(group("misc:no", &["No", "N", "false"]));
    groups.push(group("misc:unknown", &["Unknown", "Unk", "N/K"]));
    groups.push(group("misc:kilometre", &["Kilometre", "Kilometer", "km"]));
    groups.push(group("misc:mile", &["Mile", "mi", "mi."]));

    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_substantial_coverage() {
        let kb = KnowledgeBase::builtin();
        assert!(kb.len() > 300, "only {} aliases", kb.len());
        assert!(!kb.is_empty());
        assert!(kb.groups().len() > 150);
    }

    #[test]
    fn country_aliases_share_concepts() {
        let kb = KnowledgeBase::builtin();
        assert!(kb.same_concept("Canada", "CA"));
        assert!(kb.same_concept("Germany", "DEU"));
        assert!(kb.same_concept("United States", "USA"));
        assert!(kb.same_concept("Spain", "ES"));
        assert!(!kb.same_concept("Canada", "Germany"));
        assert!(!kb.same_concept("Canada", "definitely-not-a-country"));
    }

    #[test]
    fn lookup_is_case_and_space_insensitive() {
        let kb = KnowledgeBase::builtin();
        assert_eq!(kb.concept_of("  canada  "), kb.concept_of("Canada"));
        assert!(kb.concept_of("CANADA").is_some());
        assert!(kb.concept_of("").is_none());
    }

    #[test]
    fn ambiguous_codes_resolve_deterministically() {
        let kb = KnowledgeBase::builtin();
        // "CA" is both Canada and California; countries are inserted first,
        // so the binding is stable and deterministic.
        assert_eq!(kb.concept_of("CA"), Some("country:canada"));
        // The state's full name still resolves to the state concept.
        assert_eq!(kb.concept_of("California"), Some("us_state:california"));
    }

    #[test]
    fn nicknames_and_cities() {
        let kb = KnowledgeBase::builtin();
        assert!(kb.same_concept("Robert", "Bob"));
        assert!(kb.same_concept("NYC", "New York City"));
        assert!(kb.same_concept("Bombay", "Mumbai"));
        assert!(!kb.same_concept("Bob", "Bill"));
    }

    #[test]
    fn custom_groups_can_be_added() {
        let mut kb = KnowledgeBase::empty();
        kb.add_group("genre:scifi", ["Science Fiction", "Sci-Fi", "SF"]);
        assert!(kb.same_concept("sci-fi", "Science Fiction"));
        assert_eq!(kb.groups().len(), 1);
        assert_eq!(kb.groups_with_prefix("genre:").len(), 1);
        assert_eq!(kb.groups_with_prefix("country:").len(), 0);
    }

    #[test]
    fn first_binding_wins_on_alias_collision() {
        let mut kb = KnowledgeBase::empty();
        kb.add_group("a", ["X"]);
        kb.add_group("b", ["X", "Y"]);
        assert_eq!(kb.concept_of("X"), Some("a"));
        assert_eq!(kb.concept_of("Y"), Some("b"));
    }
}
