//! The top-level splitter: the one place a unit's forms are sorted into
//! functions to compile and declarations that hold for everything after
//! them.
//!
//! A `(proclaim '(special …))` or `(defvar name …)` makes its names
//! special for every form that *follows* it in the unit, and only
//! those: in `(defun g …) (proclaim '(special cell)) (defun h …)`, `g`
//! binds `cell` lexically and `h` deep-binds it.  Each [`TopForm`]
//! therefore records how many of the unit's specials precede it, and
//! every consumer — the serial compiler, the batch service's hermetic
//! jobs, the REPL — reads that from here instead of re-dispatching on
//! form heads.

use s1lisp_reader::{Datum, Symbol};

use crate::error::ConvertError;

/// One top-level form that compiles to a function: a `defun`, or — in a
/// [`TopLevel::split_eval`] split — a bare expression.
#[derive(Clone, Debug)]
pub struct TopForm {
    /// The function's name: the `defun` name, or `<prefix>-<k>` for the
    /// bare expression at position `k` of the input.
    pub name: String,
    /// The form as read.
    pub form: Datum,
    /// True for a `defun`, false for a bare expression.
    pub defun: bool,
    /// How many of the unit's [`TopLevel::specials`] were declared
    /// before this form.
    pub specials_before: usize,
}

/// A `(defvar name init)` with a constant initializer.
#[derive(Clone, Debug)]
pub struct Defvar {
    /// The variable.
    pub name: Symbol,
    /// The initializer as written (`7`, `(quote (a b))`).
    pub init: Datum,
    /// The initial value: the initializer with one `quote` stripped.
    pub value: Datum,
}

/// A unit's top-level forms, split once.
#[derive(Clone, Debug, Default)]
pub struct TopLevel {
    /// The forms that compile to functions, in order.
    pub forms: Vec<TopForm>,
    /// Every name the unit proclaims or `defvar`s special, in
    /// declaration order (repeats included).
    pub specials: Vec<Symbol>,
    /// The unit's `defvar` constant initializers, in order.
    pub defvars: Vec<Defvar>,
}

impl TopLevel {
    /// Splits a compilation unit, whose forms must each be a `defun`, a
    /// `(proclaim '(special …))` or a `(defvar name [constant])`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConvertError`] for the first malformed declaration,
    /// nameless `defun` or other top-level form.
    pub fn split(forms: &[Datum]) -> Result<TopLevel, ConvertError> {
        split(forms, None)
    }

    /// Splits REPL input: like [`TopLevel::split`], but every other form
    /// is a bare expression, compiled as a nullary function named
    /// `<prefix>-<k>` after its position `k` in `forms`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConvertError`] for the first malformed declaration or
    /// nameless `defun`.
    pub fn split_eval(forms: &[Datum], prefix: &str) -> Result<TopLevel, ConvertError> {
        split(forms, Some(prefix))
    }

    /// The specials `form` compiles against: those declared before it.
    pub fn specials_before(&self, form: &TopForm) -> &[Symbol] {
        &self.specials[..form.specials_before]
    }
}

fn split(forms: &[Datum], expr_prefix: Option<&str>) -> Result<TopLevel, ConvertError> {
    let mut unit = TopLevel::default();
    for (k, form) in forms.iter().enumerate() {
        let head = form.car().and_then(|h| h.as_symbol().cloned());
        let (name, defun) = match (head.as_ref().map(Symbol::as_str), expr_prefix) {
            (Some("defun"), _) => {
                let name = form
                    .cdr()
                    .and_then(|d| d.car())
                    .and_then(|d| d.as_symbol().map(|s| s.as_str().to_string()))
                    .ok_or_else(|| ConvertError::new("defun name must be a symbol", form))?;
                (name, true)
            }
            (Some("defvar"), _) => {
                defvar(form, &mut unit)?;
                continue;
            }
            (Some("proclaim"), _) => {
                proclaim(form, &mut unit.specials)?;
                continue;
            }
            (_, Some(prefix)) => (format!("{prefix}-{k}"), false),
            (_, None) => {
                return Err(ConvertError::new(
                    "unsupported top-level form (want defun/defvar/proclaim)",
                    form,
                ))
            }
        };
        unit.forms.push(TopForm {
            name,
            form: form.clone(),
            defun,
            specials_before: unit.specials.len(),
        });
    }
    Ok(unit)
}

/// `(defvar name [init])`: `name` becomes special; a constant
/// initializer is recorded.  The dialect has no load-time evaluation,
/// so any other initializer is an error rather than a silent drop.
fn defvar(form: &Datum, unit: &mut TopLevel) -> Result<(), ConvertError> {
    let rest = form.cdr().unwrap_or(Datum::Nil);
    let name = rest
        .car()
        .and_then(|d| d.as_symbol().cloned())
        .ok_or_else(|| ConvertError::new("malformed defvar", form))?;
    unit.specials.push(name.clone());
    let Some(init) = rest.cdr().and_then(|d| d.car()) else {
        return Ok(());
    };
    let value = match &init {
        d if d.is_self_evaluating() || d.is_nil() => Some(init.clone()),
        Datum::Sym(s) if s.as_str() == "t" => Some(init.clone()),
        Datum::Cons(c) if c.car().as_symbol().is_some_and(|s| s.as_str() == "quote") => {
            c.cdr().car()
        }
        _ => None,
    }
    .ok_or_else(|| ConvertError::new("defvar initializer must be a constant", form))?;
    unit.defvars.push(Defvar { name, init, value });
    Ok(())
}

/// `(proclaim '(special a b c))`; other proclamations are ignored.
fn proclaim(form: &Datum, specials: &mut Vec<Symbol>) -> Result<(), ConvertError> {
    let items = form
        .cdr()
        .and_then(|d| d.car())
        .and_then(|d| d.cdr()?.car()) // strip quote
        .and_then(|spec| spec.proper_list())
        .ok_or_else(|| ConvertError::new("malformed proclaim", form))?;
    if items.first().and_then(Datum::as_symbol).map(Symbol::as_str) == Some("special") {
        specials.extend(items[1..].iter().filter_map(|s| s.as_symbol().cloned()));
    }
    Ok(())
}
