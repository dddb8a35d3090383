//! Skewed-components FD fold: the workload behind the scheduler invariance
//! tests (`tests/runtime_scheduling.rs`).
//!
//! Full Disjunction parallelises across join-connected components, and real
//! lake workloads are skewed: one giant join neighbourhood next to a long
//! tail of small ones, with per-component closure cost growing quadratically
//! in component size — so costs span orders of magnitude.  This generator
//! synthesises exactly the shape that is pathological for static round-robin
//! component assignment (the strategy `lake-runtime`'s work-stealing
//! executor replaced): a giant component at index 0, medium components
//! placed every [`SkewedComponentsConfig::stride`] positions (so with
//! `stride` round-robin workers they all land in the *same* bucket as the
//! giant), and small components everywhere else.
//!
//! Each component is a star: one hub row in the second table joined by all
//! of the component's first-table rows through a shared key, so the closure
//! output stays linear in the component size while the closure *work*
//! (join attempts + subsumption) stays quadratic.  Everything is
//! deterministic — values are derived from component/row indices, no RNG.

use lake_table::{Table, TableBuilder};

/// Configuration of the skewed-components fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewedComponentsConfig {
    /// Tuples in the giant component (component index 0).
    pub giant: usize,
    /// Number of medium components.
    pub mediums: usize,
    /// Tuples per medium component.
    pub medium: usize,
    /// Number of small components.
    pub smalls: usize,
    /// Tuples per small component.
    pub small: usize,
    /// Medium components are placed at component indices that are multiples
    /// of this stride: benchmarking round-robin with `stride` workers then
    /// stacks every medium into the giant's bucket — the worst case the
    /// work-stealing executor exists to dissolve.
    pub stride: usize,
}

impl Default for SkewedComponentsConfig {
    fn default() -> Self {
        // Component closure cost ~ size²: the giant (256² = 65k units)
        // carries roughly two thirds of the fold, the eight mediums
        // (64² = 4k each) most of the rest, and 32 small components give
        // the scheduler slack to balance with.
        SkewedComponentsConfig {
            giant: 256,
            mediums: 8,
            medium: 64,
            smalls: 32,
            small: 8,
            stride: 4,
        }
    }
}

/// One generated fold: two key-joined tables plus the component sizes in
/// component order (the order `lake_fd::components::join_components`
/// discovers them in).
#[derive(Debug, Clone)]
pub struct SkewedComponents {
    /// `tables[0]` holds every component's satellite rows, `tables[1]` one
    /// hub row per component; they join on the `key` column.
    pub tables: Vec<Table>,
    /// Size (in base tuples, hub included) of each component, in component
    /// order.
    pub component_sizes: Vec<usize>,
}

/// The per-component tuple counts implied by `config`, in component order:
/// the giant first, mediums on stride positions, smalls elsewhere.
fn component_sizes(config: &SkewedComponentsConfig) -> Vec<usize> {
    let mut sizes = vec![config.giant];
    let (mut mediums, mut smalls) = (config.mediums, config.smalls);
    let stride = config.stride.max(1);
    let mut index = 1;
    while mediums > 0 || smalls > 0 {
        if index % stride == 0 && mediums > 0 {
            sizes.push(config.medium);
            mediums -= 1;
        } else if smalls > 0 {
            sizes.push(config.small);
            smalls -= 1;
        } else {
            sizes.push(config.medium);
            mediums -= 1;
        }
        index += 1;
    }
    sizes
}

/// Generates the fold.
pub fn generate_skewed_components(config: SkewedComponentsConfig) -> SkewedComponents {
    let sizes = component_sizes(&config);
    let mut satellites = TableBuilder::new("satellites", ["key", "attribute"]);
    let mut hubs = TableBuilder::new("hubs", ["key", "hub"]);
    for (component, &size) in sizes.iter().enumerate() {
        let key = format!("K{component:04}");
        // `size` base tuples per component: (size - 1) satellites + 1 hub.
        for row in 0..size.saturating_sub(1) {
            satellites = satellites.row([key.clone(), format!("a-{component}-{row}")]);
        }
        hubs = hubs.row([key.clone(), format!("h-{component}")]);
    }
    let tables = vec![satellites.build().unwrap(), hubs.build().unwrap()];
    SkewedComponents { tables, component_sizes: sizes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_deterministic_with_the_configured_shape() {
        let config = SkewedComponentsConfig::default();
        let a = generate_skewed_components(config);
        let b = generate_skewed_components(config);
        assert_eq!(a.component_sizes, b.component_sizes);
        assert_eq!(a.tables[0], b.tables[0]);
        assert_eq!(a.tables[1], b.tables[1]);

        assert_eq!(a.component_sizes.len(), 1 + config.mediums + config.smalls);
        assert_eq!(a.component_sizes[0], config.giant);
        assert_eq!(
            a.component_sizes.iter().filter(|&&s| s == config.medium).count(),
            config.mediums
        );
        // One hub per component, satellites for the rest.
        let total: usize = a.component_sizes.iter().sum();
        assert_eq!(a.tables[1].num_rows(), a.component_sizes.len());
        assert_eq!(a.tables[0].num_rows(), total - a.component_sizes.len());
    }

    #[test]
    fn mediums_land_on_stride_positions() {
        let config = SkewedComponentsConfig::default();
        let fold = generate_skewed_components(config);
        for (index, &size) in fold.component_sizes.iter().enumerate().skip(1) {
            if index % config.stride == 0 && index / config.stride <= config.mediums {
                assert_eq!(size, config.medium, "component {index} should be medium");
            }
        }
    }

    #[test]
    fn components_materialise_as_planned() {
        // The FD machinery must discover exactly the planned components, in
        // the planned order — that is what makes the round-robin bucket
        // pathology reproducible.
        use lake_fd::components::join_components;
        use lake_fd::{outer_union, IntegrationSchema};

        let fold = generate_skewed_components(SkewedComponentsConfig {
            giant: 32,
            mediums: 2,
            medium: 12,
            smalls: 5,
            small: 3,
            stride: 4,
        });
        let schema = IntegrationSchema::from_matching_headers(&fold.tables);
        let base = outer_union(&schema, &fold.tables);
        let components = join_components(&base);
        let sizes: Vec<usize> = components.iter().map(Vec::len).collect();
        // join_components orders by first tuple index, which follows the
        // satellite table's row order — the planned component order.
        assert_eq!(sizes, fold.component_sizes);
    }
}
